// BenchmarkExperiments regenerates each of the paper's tables and figures,
// one sub-benchmark per harness.Experiments() entry, with the rendered text
// discarded. `reproduce -scale 2 -experiment <name>` prints the numbers the
// same run produces.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/harness"
)

func BenchmarkExperiments(b *testing.B) {
	// TimeScale 2 shortens measurement windows moderately: the shapes are
	// stable at this scale and a full pass stays in minutes.
	opt := harness.Options{Seed: 42, TimeScale: 2}
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(opt, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
