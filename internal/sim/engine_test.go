package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(30*units.Nanosecond, func() { got = append(got, 3) })
	e.At(10*units.Nanosecond, func() { got = append(got, 1) })
	e.At(20*units.Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30*units.Nanosecond {
		t.Errorf("Now = %v, want 30ns", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(units.Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestNextAt(t *testing.T) {
	e := New(1)
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty calendar reported an event")
	}
	e.At(500, func() {})
	if at, ok := e.NextAt(); !ok || at != 500 {
		t.Fatalf("NextAt = %v, %v; want 500, true", at, ok)
	}
	// Far-future event lands in the aside heap; NextAt must see it
	// without restructuring the calendar.
	e2 := New(1)
	e2.At(units.Time(wheelSpan)*3, func() {})
	if at, ok := e2.NextAt(); !ok || at != units.Time(wheelSpan)*3 {
		t.Fatalf("aside NextAt = %v, %v; want %v, true", at, ok, units.Time(wheelSpan)*3)
	}
	// Earlier wheel event shadows the aside minimum.
	e2.At(100, func() {})
	if at, ok := e2.NextAt(); !ok || at != 100 {
		t.Fatalf("mixed NextAt = %v, %v; want 100, true", at, ok)
	}
	if got := e2.Pending(); got != 2 {
		t.Fatalf("peeking disturbed the calendar: pending = %d, want 2", got)
	}
}

func TestExecutedCounts(t *testing.T) {
	e := New(7)
	for i := 0; i < 10; i++ {
		e.At(units.Time(i*100), func() {})
	}
	e.RunUntil(450)
	if got := e.Executed(); got != 5 {
		t.Fatalf("Executed after partial run = %d, want 5", got)
	}
	e.Run()
	if got := e.Executed(); got != 10 {
		t.Fatalf("Executed after full run = %d, want 10", got)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []units.Time
	e.After(5*units.Nanosecond, func() {
		fired = append(fired, e.Now())
		e.After(7*units.Nanosecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5*units.Nanosecond || fired[1] != 12*units.Nanosecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(10*units.Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling in the past")
		}
	}()
	e.At(5*units.Nanosecond, func() {})
}

func TestNegativeAfterClamped(t *testing.T) {
	e := New(1)
	ran := false
	e.After(-units.Nanosecond, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative After should run at the current time")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var ran []int
	e.At(10*units.Nanosecond, func() { ran = append(ran, 1) })
	e.At(20*units.Nanosecond, func() { ran = append(ran, 2) })
	e.At(30*units.Nanosecond, func() { ran = append(ran, 3) })
	e.RunUntil(20 * units.Nanosecond)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want first two", ran)
	}
	if e.Now() != 20*units.Nanosecond {
		t.Errorf("Now = %v, want 20ns", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	// RunUntil advances the clock even with no events in the window.
	e.RunUntil(25 * units.Nanosecond)
	if e.Now() != 25*units.Nanosecond {
		t.Errorf("Now = %v, want 25ns", e.Now())
	}
	e.RunFor(5 * units.Nanosecond)
	if len(ran) != 3 || e.Now() != 30*units.Nanosecond {
		t.Errorf("after RunFor: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilEventsExactlyAtLimit(t *testing.T) {
	e := New(1)
	var got []int
	e.At(20*units.Nanosecond, func() {
		got = append(got, 1)
		// An event scheduled at exactly the limit during the run must
		// still fire within the same RunUntil call.
		e.At(20*units.Nanosecond, func() { got = append(got, 2) })
	})
	e.RunUntil(20 * units.Nanosecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("events at the limit: got %v, want [1 2]", got)
	}
	if e.Now() != 20*units.Nanosecond {
		t.Errorf("Now = %v, want 20ns", e.Now())
	}
	// Scheduling at the limit after the run is not "the past".
	e.At(20*units.Nanosecond, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 {
		t.Fatalf("post-run event at the limit did not fire: %v", got)
	}
}

func TestSameTimeFIFOAcrossHorizon(t *testing.T) {
	// Events at one timestamp land in the aside heap first (beyond the
	// wheel horizon), then — once the clock advances — further events at
	// the same timestamp go straight into a slot list. The (time, seq)
	// tie-break must hold across both structures.
	e := New(1)
	target := 3 * wheelSpan
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(target, func() { got = append(got, i) })
	}
	e.At(target-wheelSpan/2, func() {
		for i := 5; i < 10; i++ {
			i := i
			e.At(target, func() { got = append(got, i) })
		}
	})
	e.Run()
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("cross-horizon tie-break order = %v, want ascending", got)
		}
	}
	if e.Now() != target {
		t.Errorf("Now = %v, want %v", e.Now(), target)
	}
}

func TestWheelRollover(t *testing.T) {
	// A chain whose steps exceed one tick forces the wheel through many
	// full ring rotations; time must never stall or jump backwards.
	e := New(1)
	step := 300 * units.Picosecond
	const n = 20000 // n*step spans several wheel rotations
	count := 0
	var prev units.Time
	var tick func()
	tick = func() {
		if e.Now() < prev {
			t.Fatalf("time went backwards: %v after %v", e.Now(), prev)
		}
		prev = e.Now()
		count++
		if count < n {
			e.After(step, tick)
		}
	}
	e.After(step, tick)
	e.Run()
	if count != n {
		t.Fatalf("ran %d events, want %d", count, n)
	}
	if want := units.Time(n) * step; e.Now() != want {
		t.Errorf("Now = %v, want %v", e.Now(), want)
	}
}

// TestNodePoolBounded: slot-list nodes are recycled through the free
// list, so the pool grows only to the peak number of wheel events, not
// with the number of events ever scheduled.
func TestNodePoolBounded(t *testing.T) {
	e := New(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 10000 {
			e.After(units.Time(n%3)*units.Nanosecond, tick)
		}
	}
	for i := 0; i < 3; i++ {
		e.After(units.Nanosecond, tick)
	}
	e.Run()
	if len(e.nodes) > 3 {
		t.Fatalf("node pool grew to %d for at most 3 pending events", len(e.nodes))
	}
}

func TestRandomScheduleOrdering(t *testing.T) {
	// Random timestamps spanning several horizons: execution must be
	// globally sorted by time with FIFO tie-break, regardless of whether
	// an event lived in a slot list or the aside heap.
	e := New(1)
	rng := NewRNG(3)
	type rec struct {
		at  units.Time
		idx int
	}
	var got []rec
	for i := 0; i < 5000; i++ {
		i := i
		at := units.Time(rng.Intn(int(10 * wheelSpan)))
		e.At(at, func() { got = append(got, rec{e.Now(), i}) })
	}
	e.Run()
	if len(got) != 5000 {
		t.Fatalf("fired %d events, want 5000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("event %d fired at %v after %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
			t.Fatalf("FIFO violated at %v: insertion %d before %d",
				got[i].at, got[i-1].idx, got[i].idx)
		}
	}
}

func TestStepEmpty(t *testing.T) {
	e := New(1)
	if e.Step() {
		t.Fatal("Step on empty calendar should report false")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := New(seed)
		var vals []uint64
		var tick func()
		tick = func() {
			vals = append(vals, e.Rand().Uint64())
			if len(vals) < 100 {
				e.After(units.Time(e.Rand().Intn(1000)+1), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	for i, b := range buckets {
		if b < n/10-n/100*3 || b > n/10+n/100*3 {
			t.Errorf("bucket %d count %d deviates from uniform", i, b)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
