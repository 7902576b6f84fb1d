package link

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
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

func TestChannelQueueDelay(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(64), 0, 0)
	if ch.QueueDelay() != 0 {
		t.Error("idle channel should have zero queue delay")
	}
	ch.TrySend(4*units.CacheLine, nil) // 4 ns of serialization
	if ch.QueueDelay() != 4*units.Nanosecond {
		t.Errorf("QueueDelay = %v, want 4ns", ch.QueueDelay())
	}
}

func TestChannelSaturated(t *testing.T) {
	eng := sim.New(1)
	ch := NewChannel(eng, "test", units.GBps(1), 0, 4)
	if ch.Saturated(0.5) {
		t.Error("empty channel is not saturated")
	}
	ch.TrySend(units.CacheLine, nil)
	ch.TrySend(units.CacheLine, nil)
	if !ch.Saturated(0.5) {
		t.Error("2/4 should satisfy 0.5 saturation")
	}
	unbounded := NewChannel(eng, "u", units.GBps(1), 0, 0)
	unbounded.TrySend(units.CacheLine, nil)
	if unbounded.Saturated(0.1) {
		t.Error("unbounded channel never reports saturation")
	}
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
