package telemetry

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestMeterRate(t *testing.T) {
	var m Meter
	m.Open(0)
	// 64 GB/s worth of lines over 1 us.
	for i := 0; i < 1000; i++ {
		m.Record(units.CacheLine)
	}
	got := m.Rate(units.Microsecond)
	if math.Abs(got.GBpsValue()-64) > 0.01 {
		t.Errorf("Rate = %v, want 64GB/s", got)
	}
	if m.Ops() != 1000 || m.Bytes() != 64000 {
		t.Errorf("ops=%d bytes=%v", m.Ops(), m.Bytes())
	}
}

func TestMeterWindow(t *testing.T) {
	var m Meter
	m.Record(units.CacheLine) // before Open: counted, but window starts later
	m.Open(units.Microsecond)
	m.Record(units.CacheLine)
	got := m.Rate(2 * units.Microsecond)
	want := units.Rate(128, units.Microsecond)
	if got != want {
		t.Errorf("Rate = %v, want %v", got, want)
	}
	m.Reset(5 * units.Microsecond)
	if m.Bytes() != 0 || m.Ops() != 0 {
		t.Error("Reset did not clear counters")
	}
	if m.Rate(5*units.Microsecond) != 0 {
		t.Error("rate of empty window should be 0")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(units.Microsecond)
	// 32 GB/s in bucket 0, 16 GB/s in bucket 2, nothing in bucket 1.
	ts.Record(500*units.Nanosecond, 32*units.KB)
	ts.Record(2500*units.Nanosecond, 8*units.KB)
	ts.Record(2600*units.Nanosecond, 8*units.KB)
	ts.Record(-units.Nanosecond, units.KB) // ignored
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("len(points) = %d, want 3", len(pts))
	}
	if math.Abs(pts[0].Rate.GBpsValue()-32) > 0.01 {
		t.Errorf("bucket 0 = %v, want 32GB/s", pts[0].Rate)
	}
	if pts[1].Rate != 0 {
		t.Errorf("bucket 1 = %v, want 0", pts[1].Rate)
	}
	if math.Abs(pts[2].Rate.GBpsValue()-16) > 0.01 {
		t.Errorf("bucket 2 = %v, want 16GB/s", pts[2].Rate)
	}
	if pts[2].Time != 2*units.Microsecond {
		t.Errorf("bucket 2 start = %v", pts[2].Time)
	}
	if got := ts.RateAt(2700 * units.Nanosecond); math.Abs(got.GBpsValue()-16) > 0.01 {
		t.Errorf("RateAt = %v", got)
	}
	if ts.RateAt(10*units.Microsecond) != 0 || ts.RateAt(-1) != 0 {
		t.Error("RateAt outside range should be 0")
	}
	if ts.Interval() != units.Microsecond {
		t.Errorf("Interval = %v", ts.Interval())
	}
}

func TestTimeSeriesPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeSeries(0)
}

func TestTrafficMatrix(t *testing.T) {
	tm := NewTrafficMatrix()
	tm.Record("ccd0/core0", "umc0", 64)
	tm.Record("ccd0/core0", "umc1", 128)
	tm.Record("ccd1/core0", "umc0", 256)
	if tm.Bytes("ccd0/core0", "umc0") != 64 {
		t.Error("cell lookup failed")
	}
	if tm.Bytes("nope", "umc0") != 0 {
		t.Error("missing cell should be 0")
	}
	if tm.Bytes("ccd0/core0", "umc1") != 128 || tm.Bytes("ccd1/core0", "umc0") != 256 {
		t.Error("cells mixed up")
	}
	if tm.Total() != 448 {
		t.Errorf("Total = %v", tm.Total())
	}
	s := tm.String()
	if s == "" {
		t.Error("String should render rows")
	}
}
