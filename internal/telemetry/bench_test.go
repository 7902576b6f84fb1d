package telemetry

import (
	"testing"

	"repro/internal/units"
)

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(units.Time(i%1000000) + 100)
	}
}

func BenchmarkHistogramPercentile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(units.Time(i%1000000) + 100)
	}
	b.ResetTimer()
	var sink units.Time
	for i := 0; i < b.N; i++ {
		sink += h.P999()
	}
	_ = sink
}

func BenchmarkTimeSeriesRecord(b *testing.B) {
	ts := NewTimeSeries(25 * units.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.Record(units.Time(i%1000)*units.Microsecond, units.CacheLine)
	}
}
