package profile

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func mkTxn(id uint64, op txn.Op, umc int, lat units.Time) *txn.Transaction {
	return &txn.Transaction{
		ID: id, Op: op, Size: units.CacheLine,
		Flow: txn.Flow{
			Src: txn.CoreEP(topology.CoreID{}),
			Dst: txn.DRAMEP(umc),
		},
		Issued: 0, Completed: lat,
	}
}

func TestProfilerCounts(t *testing.T) {
	p := New(8)
	for i := 0; i < 100; i++ {
		p.Observe(mkTxn(uint64(i), txn.Read, 0, 124*units.Nanosecond))
	}
	for i := 0; i < 50; i++ {
		p.Observe(mkTxn(uint64(i+100), txn.NTWrite, 1, 130*units.Nanosecond))
	}
	if p.TotalOps() != 150 || p.TotalBytes() != 150*64 {
		t.Errorf("totals: ops=%d bytes=%v", p.TotalOps(), p.TotalBytes())
	}
	if got := p.FlowBytes(dramFlow(0)); got != 100*64 {
		t.Errorf("FlowBytes = %v, want 6400", got)
	}
	if got := p.FlowOps(dramFlow(0)); got != 100 {
		t.Errorf("FlowOps = %d, want 100", got)
	}
	if got := p.FlowOps(dramFlow(7)); got != 0 {
		t.Errorf("FlowOps of an unseen flow = %d, want 0", got)
	}
	if p.Latency(txn.Read).Count() != 100 {
		t.Error("read latency histogram wrong")
	}
	if p.Latency(txn.Write) != nil {
		t.Error("unobserved op should have nil histogram")
	}
	top := p.Top(1)
	if len(top) != 1 || !strings.Contains(top[0].Flow, "umc0") {
		t.Errorf("Top = %+v", top)
	}
}

func TestProfilerKeyBudget(t *testing.T) {
	p := New(4)
	for umc := 0; umc < 10; umc++ {
		p.Observe(mkTxn(uint64(umc), txn.Read, umc, units.Nanosecond))
	}
	if len(p.Top(0)) != 4 {
		t.Errorf("tracked %d flows, want 4", len(p.Top(0)))
	}
	if p.Overflow() != 6 {
		t.Errorf("overflow = %d, want 6", p.Overflow())
	}
	// Untracked flows still count in totals.
	if p.TotalOps() != 10 {
		t.Errorf("TotalOps = %d", p.TotalOps())
	}
}

func TestProfilerReport(t *testing.T) {
	p := New(8)
	for i := 0; i < 200; i++ {
		tx := mkTxn(uint64(i), txn.Read, i%2, 124*units.Nanosecond)
		tx.Issued = units.Time(i) * units.Nanosecond
		tx.Completed = tx.Issued + 124*units.Nanosecond
		p.Observe(tx)
	}
	rep := p.Report(5)
	for _, want := range []string{"chiplet-net profile", "200 ops", "Overhead", "umc0", "umc1", "read", "p999"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestProfilerDefaultBudget(t *testing.T) {
	if New(0) == nil {
		t.Fatal("New(0) should build with defaults")
	}
}

func TestProfilerAttachedToFlow(t *testing.T) {
	// End to end: profile a live flow via the Observer hook.
	eng := sim.New(1)
	plat := topology.EPYC7302()
	net := core.New(eng, plat)
	prof := New(16)
	f := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "p", Op: txn.Read, Kind: core.DestDRAM,
		UMCs:     plat.UMCSet(topology.NPS4, 0),
		Cores:    []topology.CoreID{{}},
		Observer: prof.Observe,
	})
	f.Start()
	eng.RunFor(30 * units.Microsecond)
	if prof.TotalOps() == 0 {
		t.Fatal("profiler saw no transactions")
	}
	if prof.TotalOps() != f.Latency().Count() {
		t.Errorf("profiler ops %d != flow completions %d", prof.TotalOps(), f.Latency().Count())
	}
	h := prof.Latency(txn.Read)
	if h == nil || h.Mean() < 100*units.Nanosecond {
		t.Errorf("profiled latency looks wrong: %v", h)
	}
	if len(prof.Top(10)) != 2 {
		t.Errorf("expected 2 flows (2 NPS4 channels), got %d", len(prof.Top(10)))
	}
}

func TestProfilerRecentRate(t *testing.T) {
	p := New(8)
	f := txn.Flow{Src: txn.CoreEP(topology.CoreID{}), Dst: txn.DRAMEP(0)}
	// 64 B every 20 ns for 160 us (well past the 80 us window): 3.2 GB/s
	// sustained.
	for i := 0; i < 8000; i++ {
		tx := mkTxn(uint64(i), txn.Read, 0, 124*units.Nanosecond)
		tx.Completed = units.Time(i) * 20 * units.Nanosecond
		p.Observe(tx)
	}
	rate := p.RecentRate(f).GBpsValue()
	if rate < 2.8 || rate > 3.6 {
		t.Errorf("RecentRate = %.2f GB/s, want ~3.2", rate)
	}
	// A long-idle flow's recent rate decays to zero while its total stays.
	idle := mkTxn(9999, txn.Read, 5, units.Nanosecond)
	idle.Completed = 10 * units.Millisecond
	p.Observe(idle)
	if got := p.RecentRate(f); got != 0 {
		t.Errorf("stale RecentRate = %v, want 0", got)
	}
	if p.FlowBytes(f) != 8000*64 {
		t.Error("total bytes must survive window expiry")
	}
}

func TestProfilerOverflowFlowsStillCounted(t *testing.T) {
	// The key budget bounds the report listing, not the measurement:
	// flows past the budget must still land in the per-flow counts, the
	// recent window, and the totals, and the report must disclose them.
	p := New(2)
	for umc := 0; umc < 6; umc++ {
		for rep := 0; rep < 3; rep++ {
			tx := mkTxn(uint64(umc*10+rep), txn.Read, umc, 100*units.Nanosecond)
			tx.Issued = units.Time(umc) * units.Nanosecond
			tx.Completed = tx.Issued + 100*units.Nanosecond
			p.Observe(tx)
		}
	}
	// Only umc0/umc1 fit the budget; every later observation overflowed.
	if p.Overflow() != 12 {
		t.Fatalf("Overflow = %d, want 12 (4 flows x 3 reps)", p.Overflow())
	}
	// Re-observing tracked flows never counts as overflow.
	p.Observe(mkTxn(1000, txn.Read, 0, 100*units.Nanosecond))
	if p.Overflow() != 12 {
		t.Fatalf("tracked re-observation bumped overflow to %d", p.Overflow())
	}
	// An untracked flow is still measured exactly.
	f5 := dramFlow(5)
	if got := p.FlowBytes(f5); got != 3*64 {
		t.Errorf("untracked FlowBytes = %v, want 192", got)
	}
	if got := p.FlowOps(f5); got != 3 {
		t.Errorf("untracked FlowOps = %d, want 3", got)
	}
	if p.recentBytes(f5) != 3*64 {
		t.Error("untracked flow missing from the recent window")
	}
	if p.TotalOps() != 19 || p.TotalBytes() != 19*64 {
		t.Errorf("totals dropped overflowed flows: ops=%d bytes=%v", p.TotalOps(), p.TotalBytes())
	}
	// The report lists only the tracked flows but discloses the rest.
	rep := p.Report(10)
	if !strings.Contains(rep, "[12 observations in untracked flows]") {
		t.Errorf("report does not disclose overflow:\n%s", rep)
	}
	if strings.Contains(rep, "umc5") {
		t.Errorf("report lists untracked flow:\n%s", rep)
	}
}

// TestSketchBoundsAdversarialFlows drives the profiler with an
// adversarial flow population: a few heavy hitters buried under two
// thousand one-shot mouse flows, far more distinct flows than the
// tracked-key budget. Every flow's counts must be exact, the heavy
// hitters must fill Top(), and the mice past the budget must be counted,
// not listed.
func TestSketchBoundsAdversarialFlows(t *testing.T) {
	const (
		heavies   = 16
		heavyOps  = 1000
		mice      = 2000
		sizeBytes = 64
	)
	p := New(32)
	var id uint64
	truthOps := map[int]uint64{}
	// Heavy hitters first, so the tracked-key budget admits them.
	for h := 0; h < heavies; h++ {
		for i := 0; i < heavyOps; i++ {
			p.Observe(mkTxn(id, txn.Read, h, 100*units.Nanosecond))
			id++
		}
		truthOps[h] = heavyOps
	}
	// Mouse flows: one observation each, distinct destinations.
	for m := 0; m < mice; m++ {
		p.Observe(mkTxn(id, txn.Read, heavies+m, 100*units.Nanosecond))
		id++
		truthOps[heavies+m] = 1
	}

	total := uint64(heavies*heavyOps + mice)
	if p.TotalOps() != total {
		t.Fatalf("TotalOps = %d, want %d", p.TotalOps(), total)
	}
	for umc, want := range truthOps {
		if ops := p.FlowOps(dramFlow(umc)); ops != want {
			t.Fatalf("FlowOps(umc%d) = %d, want %d", umc, ops, want)
		}
		if bytes := p.FlowBytes(dramFlow(umc)); bytes != units.ByteSize(want*sizeBytes) {
			t.Fatalf("FlowBytes(umc%d) = %v, want %d", umc, bytes, want*sizeBytes)
		}
	}

	// The budget admits the 16 heavy hitters and the first 16 mice; Top
	// lists the heavy hitters first, each with its exact count.
	top := p.Top(heavies)
	if len(top) != heavies {
		t.Fatalf("Top returned %d flows, want %d", len(top), heavies)
	}
	for _, fs := range top {
		if fs.Ops != heavyOps || fs.Bytes != heavyOps*sizeBytes {
			t.Errorf("Top entry %s has %d ops, %v: want a heavy hitter's %d", fs.Flow, fs.Ops, fs.Bytes, heavyOps)
		}
	}
	if n := len(p.Top(0)); n != 32 {
		t.Errorf("tracked %d flows, want the budget of 32", n)
	}
	// Mice past the tracked-key budget are counted, not listed.
	if want := uint64(mice - (32 - heavies)); p.Overflow() != want {
		t.Errorf("Overflow = %d, want %d", p.Overflow(), want)
	}
}

func dramFlow(umc int) txn.Flow {
	return txn.Flow{Src: txn.CoreEP(topology.CoreID{}), Dst: txn.DRAMEP(umc)}
}

// observeAt folds in one transaction of the given size on the flow to
// umc, completing at the given time.
func observeAt(p *Profiler, umc int, at units.Time, size units.ByteSize) {
	tx := mkTxn(0, txn.Read, umc, 0)
	tx.Size, tx.Issued, tx.Completed = size, at, at
	p.Observe(tx)
}

// The recent-window tests check the counts of the flow to kUMC and move
// the clock with the flow to padUMC. The window is eight 10 us intervals.
const (
	kUMC       = 0
	padUMC     = 1
	recentSpan = recentBuckets * recentInterval
	tenth      = recentInterval / 10
)

// TestRecentRateWindowing: bytes within the window all count; a jump past
// it expires them.
func TestRecentRateWindowing(t *testing.T) {
	p := New(8)
	for i := 0; i < 3; i++ {
		observeAt(p, kUMC, units.Time(i)*recentInterval+5*tenth, 100)
	}
	if got := p.recentBytes(dramFlow(kUMC)); got != 300 {
		t.Errorf("recent bytes = %d, want 300 (all within the window)", got)
	}
	if got := p.RecentRate(dramFlow(kUMC)); got != units.Rate(300, recentSpan) {
		t.Errorf("RecentRate = %v, want %v", got, units.Rate(300, recentSpan))
	}
	// 13 intervals ahead: everything expires.
	observeAt(p, padUMC, 13*recentInterval, 1)
	if got := p.recentBytes(dramFlow(kUMC)); got != 0 {
		t.Errorf("expired recent bytes = %d, want 0", got)
	}
	if got := p.recentBytes(dramFlow(padUMC)); got != 1 {
		t.Errorf("fresh recent bytes = %d, want 1", got)
	}
}

// TestRecentRatePartialExpiry: moving into the ninth interval drops the
// first interval's bytes and only those.
func TestRecentRatePartialExpiry(t *testing.T) {
	p := New(8)
	for i := 0; i < recentBuckets; i++ {
		observeAt(p, kUMC, units.Time(i)*recentInterval, units.ByteSize(10*(i+1)))
	}
	if got := p.recentBytes(dramFlow(kUMC)); got != 360 {
		t.Fatalf("full-window recent bytes = %d, want 360", got)
	}
	observeAt(p, padUMC, recentBuckets*recentInterval, 0)
	if got := p.recentBytes(dramFlow(kUMC)); got != 350 {
		t.Errorf("after expiry recent bytes = %d, want 350", got)
	}
}

// TestRecentRateExpiryBoundary: bytes in the oldest interval survive
// until the clock has advanced by the full window, and are gone the
// moment it has.
func TestRecentRateExpiryBoundary(t *testing.T) {
	p := New(8)
	observeAt(p, kUMC, 0, 10)
	observeAt(p, padUMC, recentSpan-recentInterval, 1)
	if got := p.recentBytes(dramFlow(kUMC)); got != 10 {
		t.Fatalf("within the window: recent bytes = %d, want 10", got)
	}
	observeAt(p, padUMC, recentSpan, 1)
	if got := p.recentBytes(dramFlow(kUMC)); got != 0 {
		t.Fatalf("at the window boundary: recent bytes = %d, want 0", got)
	}
}

// TestRecentRateLongJump: a clock jump many windows ahead clears the
// whole ring, leaving only the fresh bytes.
func TestRecentRateLongJump(t *testing.T) {
	p := New(8)
	for i := 0; i < recentBuckets; i++ {
		observeAt(p, kUMC, units.Time(i)*recentInterval, 5)
	}
	if got := p.recentBytes(dramFlow(kUMC)); got != 40 {
		t.Fatalf("pre-jump recent bytes = %d, want 40", got)
	}
	observeAt(p, kUMC, 1000*recentInterval, 7)
	if got := p.recentBytes(dramFlow(kUMC)); got != 7 {
		t.Fatalf("post-jump recent bytes = %d, want exactly the fresh 7", got)
	}
}

// TestRecentRateAlignedExpiry pins the boundary semantics of the interval
// ring at exactly aligned timestamps: bytes completing at t = n*interval
// land in interval n (not n-1), and an interval's bytes expire exactly
// when the clock reaches its start plus the window, not one observation
// later.
func TestRecentRateAlignedExpiry(t *testing.T) {
	type step struct {
		at    units.Time
		umc   int
		add   units.ByteSize
		wantK units.ByteSize // flow k's recent bytes after this step
	}
	iv := recentInterval
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "boundary add lands in the new window",
			steps: []step{
				{0, kUMC, 10, 10},
				// Exactly at the first interval boundary: must land in
				// interval 1, so it survives interval 0's expiry.
				{iv, kUMC, 20, 30},
				// One tick before the window ends: interval 0 still counts.
				{recentSpan - 1, padUMC, 0, 30},
				// Exactly at the window's end: interval 0 (and only it)
				// expires.
				{recentSpan, padUMC, 0, 20},
				// Interval 1 expires exactly at its own start + the window.
				{recentSpan + iv, padUMC, 0, 0},
			},
		},
		{
			name: "unaligned first add snaps down",
			steps: []step{
				// First add at 1.5 intervals: its interval is 1.
				{iv + 5*tenth, kUMC, 7, 7},
				// Still counted through the last tick before 1 + 8.
				{recentSpan + iv - 1, padUMC, 0, 7},
				// Expires exactly at interval 1's start + the window.
				{recentSpan + iv, padUMC, 0, 0},
			},
		},
		{
			name: "consecutive boundaries are distinct",
			steps: []step{
				{0, kUMC, 1, 1},
				{iv, kUMC, 2, 3},
				{2 * iv, kUMC, 4, 7},
				{3 * iv, kUMC, 8, 15},
				{4 * iv, kUMC, 16, 31},
				{5 * iv, kUMC, 32, 63},
				{6 * iv, kUMC, 64, 127},
				{7 * iv, kUMC, 128, 255},
				// Eight intervals on: only interval 0 has expired.
				{recentSpan, kUMC, 256, 510},
				// Nine on: interval 1 goes too.
				{recentSpan + iv, padUMC, 0, 508},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(8)
			for i, st := range tc.steps {
				observeAt(p, st.umc, st.at, st.add)
				if got := p.recentBytes(dramFlow(kUMC)); got != st.wantK {
					t.Errorf("step %d (t=%v): recent bytes = %d, want %d", i, st.at, got, st.wantK)
				}
			}
		})
	}
}

func TestObserveSeenFlowAllocatesNothing(t *testing.T) {
	// Flows are keyed by the comparable txn.Flow, not by their rendered
	// name: observing a flow and op already seen allocates nothing.
	p := New(8)
	tx := mkTxn(1, txn.Read, 0, 124*units.Nanosecond)
	p.Observe(tx)
	if n := testing.AllocsPerRun(100, func() { p.Observe(tx) }); n != 0 {
		t.Errorf("repeat Observe allocates %.0f times, want 0", n)
	}
}
