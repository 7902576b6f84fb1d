package metrics_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/metrics"
)

// FuzzDumpJSON feeds raw bytes to ReadJSON, the reader behind
// cmd/chipletstat. It must either reject the input or return a dump on
// which every offline report and re-export runs without panicking. The
// seed corpus in testdata/fuzz/FuzzDumpJSON covers a zero-window dump,
// mismatched window starts/ends, an unknown kind and a negative first
// window.
func FuzzDumpJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := metrics.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return
		}
		metrics.FamilySummary(d)
		metrics.BottleneckReport(d, 5)
		for w := d.FirstWindow(); w < d.Total(); w++ {
			metrics.RenderWindow(d, w, 5)
		}
		if err := metrics.WriteOpenMetrics(io.Discard, d); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WriteCSV(io.Discard, d); err != nil {
			t.Fatal(err)
		}
	})
}
