package link

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestChannelSerialization(t *testing.T) {
	eng := sim.New(1)
	// 64 GB/s channel, 5 ns propagation: a 64 B line takes 1 ns + 5 ns.
	ch := NewChannel(eng, "test", units.GBps(64), 5*units.Nanosecond, 0)
	var delivered units.Time
	ch.TrySend(units.CacheLine, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != 6*units.Nanosecond {
		t.Errorf("delivery at %v, want 6ns", delivered)
	}
}

func TestChannelFIFOBacklog(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(64), 0, 0)
	var times []units.Time
	for i := 0; i < 3; i++ {
		ch.TrySend(units.CacheLine, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	// Three lines serialize back to back: 1, 2, 3 ns.
	want := []units.Time{units.Nanosecond, 2 * units.Nanosecond, 3 * units.Nanosecond}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
	if ch.Stats().Messages != 3 || ch.Stats().Bytes != 192 {
		t.Errorf("stats = %+v", ch.Stats())
	}
}

func TestChannelBackpressure(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(64), 0, 2)
	if !ch.TrySend(units.CacheLine, nil) || !ch.TrySend(units.CacheLine, nil) {
		t.Fatal("first two sends should be accepted")
	}
	if ch.TrySend(units.CacheLine, nil) {
		t.Fatal("third send should be refused: queue depth 2")
	}
	if ch.Refused() != 1 {
		t.Errorf("Refused = %d", ch.Refused())
	}
	if ch.Queued() != 2 {
		t.Errorf("Queued = %d", ch.Queued())
	}
	// After the first message serializes (1 ns), a slot frees.
	eng.RunUntil(units.Nanosecond)
	if !ch.TrySend(units.CacheLine, nil) {
		t.Error("send after drain should be accepted")
	}
}

func TestChannelSendBypassesBound(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(64), 0, 1)
	ch.TrySend(units.CacheLine, nil)
	delivered := false
	ch.Send(units.CacheLine, func() { delivered = true })
	eng.Run()
	if !delivered {
		t.Error("Send must bypass the queue bound")
	}
	if ch.Depth() != 1 {
		t.Error("Send must restore the configured depth")
	}
}

// TestChannelQueueingStats checks the queueing counters against a brute
// force list of every message's accept-to-service wait, across a stats
// reset and with bounded, unbounded and nil-delivery sends mixed.
func TestChannelQueueingStats(t *testing.T) {
	eng := sim.New(3)
	ch := NewChannel(eng, "q", units.GBps(16), 2*units.Nanosecond, 8)
	var waits []units.Time
	send := func(size units.ByteSize, deliver func()) {
		now, free := eng.Now(), ch.nextFree
		if ch.TrySend(size, deliver) {
			waits = append(waits, max(free-now, 0))
		}
	}
	check := func(when string) {
		t.Helper()
		var sum, hi units.Time
		for _, w := range waits {
			sum += w
			hi = max(hi, w)
		}
		var mean units.Time
		if len(waits) > 0 {
			mean = units.Time(math.Round(float64(sum) / float64(len(waits))))
		}
		s := ch.Stats()
		if s.Messages != uint64(len(waits)) || ch.QueueWaitTotal() != sum ||
			s.MeanQueueing != mean || s.MaxQueueing != hi {
			t.Errorf("%s: msgs %d wait total %v mean %v max %v, want %d %v %v %v", when,
				s.Messages, ch.QueueWaitTotal(), s.MeanQueueing, s.MaxQueueing,
				len(waits), sum, mean, hi)
		}
	}
	check("idle")
	rng := eng.Rand()
	var pump func()
	pump = func() {
		for i := rng.Intn(6); i > 0; i-- {
			size := units.ByteSize(32 * (1 + rng.Intn(4)))
			if rng.Intn(3) == 0 {
				send(size, nil)
			} else {
				send(size, func() {})
			}
		}
		eng.After(units.Time(1+rng.Intn(8))*units.Nanosecond, pump)
	}
	eng.After(0, pump)
	eng.RunUntil(10 * units.Microsecond)
	check("loaded")
	ch.ResetStats()
	waits = waits[:0]
	check("reset")
	eng.RunUntil(20 * units.Microsecond)
	check("after reset")
}

func TestChannelAchievedBandwidthMatchesCapacity(t *testing.T) {
	// A saturating sender achieves exactly the channel capacity.
	eng := sim.New(1)
	cap := units.GBps(32.5)
	ch := NewChannel(eng, "gmi", cap, 9*units.Nanosecond, 16)
	var sent units.ByteSize
	var pump func()
	pump = func() {
		for ch.TrySend(units.CacheLine, nil) {
			sent += units.CacheLine
		}
		if eng.Now() < 50*units.Microsecond {
			eng.After(2*units.Nanosecond, pump)
		}
	}
	eng.After(0, pump)
	eng.RunUntil(50 * units.Microsecond)
	got := units.Rate(sent, 50*units.Microsecond)
	if math.Abs(got.GBpsValue()-cap.GBpsValue()) > 0.5 {
		t.Errorf("achieved %v, want ~%v", got, cap)
	}
	if u := ch.Utilization(); u < 0.97 || u > 1.001 {
		t.Errorf("utilization = %v, want ~1", u)
	}
}

// TestChannelUtilizationAfterReset saturates a channel for T, resets its
// stats, and saturates it for T again: utilization covers only the window
// since the reset, so it reads ~1, not the ~0.5 that dividing the
// post-reset busy time by [0, now] would give.
func TestChannelUtilizationAfterReset(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "gmi", units.GBps(32), 0, 16)
	const span = 20 * units.Microsecond
	var pump func()
	pump = func() {
		for ch.TrySend(units.CacheLine, nil) {
		}
		if eng.Now() < 2*span {
			eng.After(2*units.Nanosecond, pump)
		}
	}
	eng.After(0, pump)
	eng.RunUntil(span)
	ch.ResetStats()
	if u := ch.Utilization(); u != 0 {
		t.Errorf("utilization at the reset instant = %v, want 0", u)
	}
	eng.RunUntil(2 * span)
	if u := ch.Utilization(); u < 0.97 || u > 1.001 {
		t.Errorf("utilization after reset = %v, want ~1", u)
	}
}

func TestChannelInfiniteCapacity(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "inf", 0, units.Nanosecond, 0)
	var at units.Time
	ch.TrySend(units.MB, func() { at = eng.Now() })
	eng.Run()
	if at != units.Nanosecond {
		t.Errorf("infinite channel delivery at %v, want 1ns (latency only)", at)
	}
}

func TestChannelResetStats(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(1), 0, 1)
	ch.TrySend(units.CacheLine, nil)
	ch.TrySend(units.CacheLine, nil) // refused
	ch.ResetStats()
	s := ch.Stats()
	if s.Bytes != 0 || s.Refused != 0 || s.Messages != 0 || s.BusyTime != 0 {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestChannelPanics(t *testing.T) {
	eng := sim.New(1)
	for name, fn := range map[string]func(){
		"nil engine":     func() { NewChannel(nil, "x", 0, 0, 0) },
		"negative depth": func() { NewChannel(eng, "x", 0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTokenPoolBasics(t *testing.T) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "ccx", 2)
	order := []int{}
	p.Acquire(func() { order = append(order, 1) })
	p.Acquire(func() { order = append(order, 2) })
	p.Acquire(func() { order = append(order, 3) }) // waits
	if p.InUse() != 2 || p.Waiting() != 1 {
		t.Fatalf("inUse=%d waiting=%d", p.InUse(), p.Waiting())
	}
	eng.RunUntil(30 * units.Nanosecond)
	p.Release()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if p.MaxWait() != 30*units.Nanosecond {
		t.Errorf("MaxWait = %v, want 30ns", p.MaxWait())
	}
	if p.InUse() != 2 {
		t.Errorf("inUse after handoff = %d, want 2", p.InUse())
	}
}

func TestTokenPoolFIFO(t *testing.T) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "ccx", 1)
	var order []int
	p.Acquire(func() {})
	for i := 1; i <= 3; i++ {
		i := i
		p.Acquire(func() { order = append(order, i) })
	}
	for i := 0; i < 3; i++ {
		p.Release()
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("wakeup order = %v", order)
		}
	}
}

func TestTokenPoolTryAcquire(t *testing.T) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "ccx", 1)
	if !p.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if p.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	// With a waiter queued, TryAcquire must not jump the line.
	p.Acquire(func() {})
	p.Release()
	if p.TryAcquire() {
		t.Fatal("TryAcquire must not overtake a queued waiter")
	}
}

func TestTokenPoolResize(t *testing.T) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "flow", 1)
	granted := 0
	for i := 0; i < 4; i++ {
		p.Acquire(func() { granted++ })
	}
	if granted != 1 {
		t.Fatalf("granted = %d, want 1", granted)
	}
	p.Resize(3) // wakes two waiters
	if granted != 3 {
		t.Fatalf("after grow granted = %d, want 3", granted)
	}
	p.Resize(1) // lazily shrinks: holders keep tokens
	if p.InUse() != 3 {
		t.Fatalf("shrink revoked tokens: inUse = %d", p.InUse())
	}
	p.Release()
	p.Release()
	if granted != 3 {
		// inUse drained from 3 to 1 = capacity, so the waiter still blocks.
		t.Fatalf("granted = %d, want still 3 at full occupancy", granted)
	}
	p.Release() // inUse 0 -> waiter takes the freed slot
	if granted != 4 || p.InUse() != 1 {
		t.Fatalf("granted = %d inUse = %d, want 4/1 after drain", granted, p.InUse())
	}
	p.Resize(0) // clamps to 1
	if p.Capacity() != 1 {
		t.Errorf("Resize(0) capacity = %d, want 1", p.Capacity())
	}
}

func TestTokenPoolReleasePanics(t *testing.T) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unmatched Release")
		}
	}()
	p.Release()
}

// Property: tokens are conserved — InUse never exceeds max(capacity ever
// set) and never goes negative, across random acquire/release/resize.
func TestTokenPoolConservation(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		eng := sim.New(seed)
		p := NewTokenPool(eng, "prop", 4)
		held := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				p.Acquire(func() { held++ })
			case 1:
				if held > 0 {
					held--
					p.Release()
				}
			case 2:
				p.Resize(int(op%7) + 1)
			}
			if p.InUse() < 0 {
				return false
			}
			if p.Waiting() > 0 && p.free() > 0 {
				return false // free tokens must not coexist with waiters
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTokenPoolWaitQueueCompaction drains and refills a pool's waiter
// queue many times over, so grants pop from the head while appends
// compact the consumed prefix away. Grants must stay in FIFO order, and
// the wait statistics must equal a reference histogram fed every grant's
// wait, immediate zero waits included, whenever they are read.
func TestTokenPoolWaitQueueCompaction(t *testing.T) {
	eng := sim.New(5)
	rng := eng.Rand()
	p := NewTokenPool(eng, "q", 3)
	var ref telemetry.Histogram
	queued, granted, compactions, immediate := 0, 0, 0, 0
	acquire := func() {
		if p.whead > 0 && len(p.waiters) == cap(p.waiters) {
			compactions++
		}
		if p.Waiting() == 0 && p.InUse() < p.Capacity() {
			immediate++
		}
		id, since := queued, eng.Now()
		queued++
		p.Acquire(func() {
			if id != granted {
				t.Fatalf("granted waiter %d, want %d (FIFO)", id, granted)
			}
			granted++
			ref.Record(eng.Now() - since)
		})
	}
	check := func(round int) {
		t.Helper()
		if p.Grants() != ref.Count() || p.WaitTotal() != ref.Sum() || p.MeanWait() != ref.Mean() {
			t.Fatalf("round %d: grants %d total %v mean %v, want %d %v %v", round,
				p.Grants(), p.WaitTotal(), p.MeanWait(), ref.Count(), ref.Sum(), ref.Mean())
		}
		for _, pct := range []float64{0, 25, 50, 95, 99.9, 100} {
			if got, want := p.WaitPercentile(pct), ref.Percentile(pct); got != want {
				t.Fatalf("round %d: P%v = %v, want %v", round, pct, got, want)
			}
		}
	}
	maxQueue := 0
	for round := 0; round < 400; round++ {
		for i := rng.Intn(12); i > 0; i-- {
			acquire()
		}
		maxQueue = max(maxQueue, p.Waiting())
		eng.RunFor(units.Time(rng.Intn(4)) * units.Nanosecond)
		for i := rng.Intn(14); i > 0 && p.InUse() > 0; i-- {
			p.Release()
		}
		if round%7 == 0 {
			check(round)
		}
	}
	for p.InUse() > 0 {
		p.Release()
	}
	check(-1)
	if granted != queued || p.Waiting() != 0 {
		t.Fatalf("granted %d of %d, %d still waiting", granted, queued, p.Waiting())
	}
	if compactions == 0 || immediate == 0 {
		t.Fatalf("%d compactions and %d immediate grants: the script missed a path", compactions, immediate)
	}
	if cap(p.waiters) > 2*maxQueue+8 {
		t.Errorf("waiter slice holds %d slots for a peak queue of %d", cap(p.waiters), maxQueue)
	}
	p.ResetStats()
	ref.Reset()
	check(-2)
}
