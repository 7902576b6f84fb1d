// Package trace is the hop-level flight recorder of the chiplet network:
// the in-network counterpart of the endpoint profiler in internal/profile,
// and the second half of the paper's research direction #5 (a perf-like
// utility for the chiplet fabric). Where the profiler sees a transaction
// only at completion, the tracer sees every hop it takes — one span per
// queue wait, serialization occupancy, propagation leg, token-window
// stall, fixed pipeline stage and device service period — so a loaded
// latency can be decomposed into named causes after the fact.
//
// Design constraints, in order:
//
//   - Zero overhead when tracing is off. Components hold a *Tracer that is
//     nil until attached, and every hook site is a nil check around a call;
//     an attached-but-disabled tracer costs one extra predictable branch
//     (the `on` flag). ci.sh gates this with a benchmark comparison.
//   - No steady-state allocations on the hot path, enabled or not — the
//     same discipline as the sim engine's calendar. Spans and transaction
//     records live in bounded rings that grow in fixed chunks as entries
//     are recorded and, once full, overwrite their oldest entries in
//     place; counters are flat arrays indexed by hop id. A span is stored
//     in 24 bytes (24 MiB at the default cap), which limits a tracer to
//     2^21 hops and transaction ids below 2^40: RegisterHop and span
//     recording panic past them.
//   - Exact attribution. Spans for one transaction tile the interval
//     [Issued, Completed] with no gaps or overlaps, so their durations sum
//     to the end-to-end latency exactly (tested to the picosecond). The
//     aggregate per-cause totals are accumulated streamingly and therefore
//     stay exact even after the span ring wraps.
//
// A Tracer is engine-local and single-goroutine, like everything else at
// simulation level: attach one tracer per network, never share one across
// parallel experiment cells.
//
// Attribution relies on the "active transaction" register: the simulation
// is one callback chain at a time, so the issuing layer (internal/core)
// sets the register at the top of every event callback and the hooks read
// it. Traffic that never sets the register (writebacks, accelerator DMA
// driven through SendWithRetry) records under transaction id 0: counted in
// the per-hop registry, excluded from per-transaction attribution.
package trace

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Cause attributes a span of a transaction's lifetime to a reason.
type Cause uint8

// Span causes. The first four are the link-layer states a message moves
// through; the rest cover the remaining legs of a data path so the whole
// latency is attributable.
const (
	// CauseQueued is time spent waiting behind a channel serializer's
	// backlog after being accepted.
	CauseQueued Cause = iota
	// CauseWindowStalled is time spent waiting for a token-pool grant
	// (MSHR/WCB windows, CCX/CCD pools, device credits).
	CauseWindowStalled
	// CauseSerializing is time occupying a channel serializer.
	CauseSerializing
	// CausePropagating is wire/hop propagation after serialization.
	CausePropagating
	// CauseBackpressured is time spent retrying a send refused by a full
	// bounded queue — the §3.5 arrival-proportional admission wait.
	CauseBackpressured
	// CauseProcessing is a fixed pipeline stage: cache-miss handling and
	// the CCM, coherent station, I/O hub, root complex, remote LLC lookup.
	CauseProcessing
	// CauseService is variable device service time: the DRAM array access
	// or the CXL module's internal latency, including jitter.
	CauseService
)

// NumCauses is the number of distinct span causes.
const NumCauses = 7

var causeNames = [NumCauses]string{
	"queued", "window-stalled", "serializing", "propagating",
	"backpressured", "processing", "service",
}

func (c Cause) String() string {
	if int(c) >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// CauseFromString inverts Cause.String; ok reports whether the name is a
// known cause.
func CauseFromString(s string) (Cause, bool) {
	for i, n := range causeNames {
		if n == s {
			return Cause(i), true
		}
	}
	return 0, false
}

// Kind classifies a trace hop.
type Kind uint8

// Hop kinds.
const (
	// KindChannel is a directional serialized link (GMI, NoC, UMC, ...).
	KindChannel Kind = iota
	// KindPool is a token pool (hardware traffic-control window).
	KindPool
	// KindStage is a fixed pipeline stage (CCM, switch hops, I/O hub).
	KindStage
	// KindDevice is a serviced device (DRAM array, CXL module internals).
	KindDevice
)

var kindNames = [...]string{"channel", "pool", "stage", "device"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindFromString inverts Kind.String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// HopID indexes a registered hop (a traced network resource).
type HopID int32

// Hop describes one traced resource: a directional channel, a token pool,
// a fixed path stage, or a device.
type Hop struct {
	Name string
	Kind Kind
}

// Span is one attributed interval of one transaction's lifetime at one
// hop.
type Span struct {
	Txn        uint64
	Start, End units.Time
	Hop        HopID
	Cause      Cause
}

// Duration reports the span length.
func (s Span) Duration() units.Time { return s.End - s.Start }

// The span ring stores each span as a 24-byte spanRec rather than a Span,
// whose 29 bytes pad to 32: Start and End stay whole, and Txn, Hop and
// Cause share one tag, txn<<24 | hop<<3 | cause. The tag bounds the hop
// registry at maxHops (RegisterHop panics past it) and transaction ids
// below maxTxn (recording a span for a larger one panics).
const (
	causeBits = 3
	hopBits   = 21
	txnShift  = causeBits + hopBits
	maxHops   = 1 << hopBits
	maxTxn    = 1 << (64 - txnShift)
)

// Every cause must fit its tag field: this fails to compile otherwise.
var _ [1<<causeBits - NumCauses]struct{}

type spanRec struct {
	tag        uint64
	start, end units.Time
}

// pack encodes s for the span ring.
func pack(s Span) spanRec {
	if s.Txn >= maxTxn {
		panic("trace: transaction id does not fit a span record (limit 1<<40)")
	}
	return spanRec{tag: s.Txn<<txnShift | uint64(s.Hop)<<causeBits | uint64(s.Cause), start: s.Start, end: s.End}
}

// span decodes the record pack made.
func (r spanRec) span() Span {
	return Span{Txn: r.tag >> txnShift, Start: r.start, End: r.end,
		Hop: HopID(r.tag >> causeBits & (maxHops - 1)), Cause: Cause(r.tag & (1<<causeBits - 1))}
}

// TxnRecord is the end-to-end record of one traced transaction.
type TxnRecord struct {
	ID                uint64
	Issued, Completed units.Time
}

// Latency reports the record's end-to-end latency.
func (r TxnRecord) Latency() units.Time { return r.Completed - r.Issued }

// Counters is the per-hop register file of the counter registry.
type Counters struct {
	// Meter accumulates the bytes and messages that entered the hop
	// (channels only; pools and stages leave it zero).
	Meter telemetry.Meter
	// Spans counts spans recorded at the hop.
	Spans uint64
	// ByCause is the total span time at the hop per cause.
	ByCause [NumCauses]units.Time
}

// Busy reports the hop's total recorded span time across all causes.
func (c *Counters) Busy() units.Time {
	var t units.Time
	for _, d := range c.ByCause {
		t += d
	}
	return t
}

// Config bounds a Tracer's storage. The rings are not presized: they grow
// in fixed chunks of 64 Ki entries as spans and records are written, up to
// the cap. A span takes 24 bytes of ring, so the default cap holds 24 MiB;
// the packing limits a tracer to 2^21 hops and transaction ids below 2^40.
type Config struct {
	// SpanCap bounds the span ring (default 1<<20). When full, the oldest
	// spans are overwritten and Dropped counts them; counters stay exact.
	SpanCap int
}

// txnRingCap bounds the transaction-record ring.
const txnRingCap = 1 << 16

// Tracer is the flight recorder. Zero value is not usable; use New. A
// fresh tracer is disabled: attach it, then Enable around the window to
// record.
type Tracer struct {
	on     bool
	active uint64

	hops     []Hop
	counters []Counters

	spans       ring[spanRec]
	spanDropped uint64

	txns ring[TxnRecord]

	// attr is the streaming per-cause total over transaction-attributed
	// spans (active != 0); latTotal/txnSeen the matching end-to-end sums.
	// Kept outside the rings so reports stay exact after wrap.
	attr     [NumCauses]units.Time
	latTotal units.Time
	txnSeen  uint64

	first, last units.Time
	hasSpan     bool
}

// New builds a tracer with the given storage bounds.
func New(cfg Config) *Tracer {
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = 1 << 20
	}
	return &Tracer{
		spans: newRing[spanRec](cfg.SpanCap),
		txns:  newRing[TxnRecord](txnRingCap),
	}
}

// RegisterHop adds a resource to the registry and returns its id. Called
// at attach time (never on the hot path); registering the same name twice
// creates two hops, so components attach exactly once.
func (t *Tracer) RegisterHop(name string, kind Kind) HopID {
	id := hopID(len(t.hops))
	t.hops = append(t.hops, Hop{Name: name, Kind: kind})
	t.counters = append(t.counters, Counters{})
	return id
}

// hopID turns the registry index of a new hop into its id, panicking past
// the maxHops a span record's hop field holds.
func hopID(i int) HopID {
	if i >= maxHops {
		panic(fmt.Sprintf("trace: hop %d does not fit a span record (limit %d)", i, maxHops))
	}
	return HopID(i)
}

// Enable starts recording.
func (t *Tracer) Enable() { t.on = true }

// Disable stops recording; storage and counters are kept for inspection.
func (t *Tracer) Disable() { t.on = false }

// SetActive establishes the transaction id subsequent spans attribute to.
// The issuing layer calls it at the top of every event callback; id 0
// means infrastructure traffic (counted per hop, not per transaction).
func (t *Tracer) SetActive(id uint64) {
	if t.on {
		t.active = id
	}
}

// Active reports the current attribution id.
func (t *Tracer) Active() uint64 { return t.active }

// span records one interval at a hop for the active transaction.
// Zero-width spans are dropped: they carry no time.
func (t *Tracer) span(hop HopID, cause Cause, from, to units.Time) {
	if to <= from {
		return
	}
	d := to - from
	c := &t.counters[hop]
	c.Spans++
	c.ByCause[cause] += d
	if t.active != 0 {
		t.attr[cause] += d
	}
	if !t.hasSpan || from < t.first {
		t.first = from
	}
	if !t.hasSpan || to > t.last {
		t.last = to
	}
	t.hasSpan = true
	if t.spans.push(pack(Span{Txn: t.active, Start: from, End: to, Hop: hop, Cause: cause})) {
		t.spanDropped++
	}
}

// Enqueue is the channel hook: a message of the given size was accepted
// at `accept`, starts serializing at `start`, finishes at `done`, and
// arrives (after the channel's own propagation delay) at `arrive`. Any
// per-message extra delay is attributed separately by the caller, which
// knows what stage it models. Enqueue is small enough to inline, so an
// attached-but-disabled tracer costs the channel one flag test, not a
// call.
func (t *Tracer) Enqueue(hop HopID, size units.ByteSize, accept, start, done, arrive units.Time) {
	if t.on {
		t.enqueue(hop, size, accept, start, done, arrive)
	}
}

func (t *Tracer) enqueue(hop HopID, size units.ByteSize, accept, start, done, arrive units.Time) {
	t.counters[hop].Meter.Record(size)
	t.span(hop, CauseQueued, accept, start)
	t.span(hop, CauseSerializing, start, done)
	t.span(hop, CausePropagating, done, arrive)
}

// Wait is the token-pool hook: the waiter for txn, queued since `since`,
// was granted at `now`. It also restores the active register to the
// granted transaction, because the grant continuation runs inside some
// other transaction's release chain.
func (t *Tracer) Wait(hop HopID, txn uint64, since, now units.Time) {
	if !t.on {
		return
	}
	t.active = txn
	t.span(hop, CauseWindowStalled, since, now)
}

// Range records an arbitrary attributed interval — backpressure waits and
// the fixed path stages the channels cannot see.
func (t *Tracer) Range(hop HopID, cause Cause, from, to units.Time) {
	if !t.on {
		return
	}
	t.span(hop, cause, from, to)
}

// EndTxn records a completed transaction's end-to-end window.
func (t *Tracer) EndTxn(id uint64, issued, completed units.Time) {
	if !t.on || id == 0 {
		return
	}
	t.latTotal += completed - issued
	t.txnSeen++
	t.txns.push(TxnRecord{ID: id, Issued: issued, Completed: completed})
}

// Hops reports the registry contents (a copy).
func (t *Tracer) Hops() []Hop {
	out := make([]Hop, len(t.hops))
	copy(out, t.hops)
	return out
}

// Counters reports a snapshot of one hop's counters.
func (t *Tracer) Counters(hop HopID) Counters { return t.counters[hop] }

// SpanCount reports live spans in the ring.
func (t *Tracer) SpanCount() int { return t.spans.n }

// Dropped reports spans overwritten after the ring filled.
func (t *Tracer) Dropped() uint64 { return t.spanDropped }

// TxnCount reports transactions recorded since construction (including
// any whose ring record was overwritten).
func (t *Tracer) TxnCount() uint64 { return t.txnSeen }

// TotalLatency reports the summed end-to-end latency of every recorded
// transaction (exact; unaffected by ring wrap).
func (t *Tracer) TotalLatency() units.Time { return t.latTotal }

// AttributedTime reports the per-cause span totals over
// transaction-attributed spans (exact; unaffected by ring wrap).
func (t *Tracer) AttributedTime() [NumCauses]units.Time { return t.attr }

// TimeRange reports the interval covered by recorded spans.
func (t *Tracer) TimeRange() (first, last units.Time, ok bool) {
	return t.first, t.last, t.hasSpan
}

// EachSpan visits live spans oldest-first.
func (t *Tracer) EachSpan(fn func(Span)) { t.spans.each(func(r spanRec) { fn(r.span()) }) }

// SpansInWindow visits, oldest-first, the live spans overlapping the
// half-open interval [start, end) — the window-indexed filter of the
// trace-metrics fusion path. Keyed off a harvest window's [start, end)
// stamps from internal/metrics, it returns exactly the spans of
// transactions in flight during that window, turning a windowed verdict
// ("umc0/rd saturated in window 41") into the cause-attributed spans
// that crossed it. A span overlaps when it covers any time inside the
// window (span.End > start && span.Start < end; boundary-touching spans
// belong to the window they occupy, not the one they end at). Reports
// the number of spans visited.
func (t *Tracer) SpansInWindow(start, end units.Time, fn func(Span)) int {
	n := 0
	t.EachSpan(func(s Span) {
		if s.End > start && s.Start < end {
			if fn != nil {
				fn(s)
			}
			n++
		}
	})
	return n
}

// EachTxn visits live transaction records oldest-first.
func (t *Tracer) EachTxn(fn func(TxnRecord)) { t.txns.each(fn) }
