package telemetry

import (
	"fmt"

	"repro/internal/units"
)

// Meter accumulates transferred bytes and converts them to an achieved
// bandwidth over a measurement window. The zero value is ready to use.
type Meter struct {
	bytes units.ByteSize
	ops   uint64
	start units.Time
	open  bool
}

// Open marks the beginning of the measurement window. Bytes recorded
// before Open still count; Open only pins the window start used by Rate.
func (m *Meter) Open(now units.Time) {
	m.start = now
	m.open = true
}

// Record adds size bytes (one operation) to the meter.
func (m *Meter) Record(size units.ByteSize) {
	m.bytes += size
	m.ops++
}

// Bytes reports the total bytes recorded.
func (m *Meter) Bytes() units.ByteSize { return m.bytes }

// Ops reports the number of recorded operations.
func (m *Meter) Ops() uint64 { return m.ops }

// Start reports when the meter's window opened (zero if Open was never
// called).
func (m *Meter) Start() units.Time { return m.start }

// Rate reports the achieved bandwidth between the window start (or time
// zero if Open was never called) and now.
func (m *Meter) Rate(now units.Time) units.Bandwidth {
	return units.Rate(m.bytes, now-m.start)
}

// Reset clears the counters and re-opens the window at now.
func (m *Meter) Reset(now units.Time) {
	m.bytes = 0
	m.ops = 0
	m.Open(now)
}

// String renders the raw counters.
func (m *Meter) String() string {
	return fmt.Sprintf("meter{bytes=%v ops=%d}", m.bytes, m.ops)
}

// Point is one sample of a bandwidth time series.
type Point struct {
	Time units.Time
	Rate units.Bandwidth
}

// TimeSeries accumulates bytes into fixed-width time buckets and reports
// the achieved bandwidth per bucket. It reproduces the paper's Figure 5
// style traces (bandwidth of each competing flow sampled over time).
type TimeSeries struct {
	interval units.Time
	buckets  []units.ByteSize
}

// NewTimeSeries returns a series with the given sampling interval. It
// panics on a non-positive interval.
func NewTimeSeries(interval units.Time) *TimeSeries {
	if interval <= 0 {
		panic("telemetry: non-positive time series interval")
	}
	return &TimeSeries{interval: interval}
}

// Record credits size bytes to the bucket containing time t. Out-of-order
// recording is fine; negative times are ignored.
func (ts *TimeSeries) Record(t units.Time, size units.ByteSize) {
	if t < 0 {
		return
	}
	idx := int(t / ts.interval)
	for idx >= len(ts.buckets) {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += size
}

// Interval reports the bucket width.
func (ts *TimeSeries) Interval() units.Time { return ts.interval }

// Points reports one Point per bucket; Time is the bucket start and Rate
// the bandwidth achieved within the bucket.
func (ts *TimeSeries) Points() []Point {
	pts := make([]Point, len(ts.buckets))
	for i, b := range ts.buckets {
		pts[i] = Point{
			Time: units.Time(i) * ts.interval,
			Rate: units.Rate(b, ts.interval),
		}
	}
	return pts
}

// RateAt reports the bandwidth of the bucket containing t, zero when t is
// outside the recorded range.
func (ts *TimeSeries) RateAt(t units.Time) units.Bandwidth {
	if t < 0 {
		return 0
	}
	idx := int(t / ts.interval)
	if idx >= len(ts.buckets) {
		return 0
	}
	return units.Rate(ts.buckets[idx], ts.interval)
}
