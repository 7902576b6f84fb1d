package trace

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/units"
)

// sliceRing is the reference model of the chunked ring: one slice of cap
// entries with a modulo index, oldest overwritten first.
type sliceRing[T any] struct {
	buf    []T
	pos, n int
}

func (r *sliceRing[T]) push(v T) (overwrote bool) {
	r.buf[r.pos] = v
	r.pos = (r.pos + 1) % len(r.buf)
	if r.n == len(r.buf) {
		return true
	}
	r.n++
	return false
}

func (r *sliceRing[T]) live() []T {
	out := make([]T, 0, r.n)
	start := (r.pos - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// refSpan is the i-th span of the reference drive: start times jump
// around so window filters select scattered spans, and every span has
// positive width.
func refSpan(i int, hop HopID) Span {
	from := units.Time((i*7919)%1000) * 10
	return Span{Txn: uint64(i/3 + 1), Start: from, End: from + units.Time(i%13+1)*10,
		Hop: hop, Cause: Cause(i % NumCauses)}
}

func collect[T any](each func(func(T))) []T {
	var out []T
	each(func(v T) { out = append(out, v) })
	return out
}

// TestRingMatchesSliceRing drives a tracer's chunked span and transaction
// rings beside the slice reference, for caps below, at and past chunk
// boundaries, checking every reader at checkpoints from empty to three
// times around the ring.
func TestRingMatchesSliceRing(t *testing.T) {
	for _, size := range []int{1, 3, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 5} {
		tr := New(Config{SpanCap: size, TxnCap: size})
		hop := tr.RegisterHop("h", KindStage)
		tr.Enable()
		spans := sliceRing[Span]{buf: make([]Span, size)}
		txns := sliceRing[TxnRecord]{buf: make([]TxnRecord, size)}
		var dropped uint64
		pushed := 0
		for _, upto := range []int{0, 1, size - 1, size, size + 1, 2*size + size/2, 3 * size} {
			for ; pushed < upto; pushed++ {
				s := refSpan(pushed, hop)
				tr.SetActive(s.Txn)
				tr.Range(hop, s.Cause, s.Start, s.End)
				if spans.push(s) {
					dropped++
				}
				r := TxnRecord{ID: uint64(pushed + 1), Issued: s.Start, Completed: s.End}
				tr.EndTxn(r.ID, r.Issued, r.Completed)
				txns.push(r)
			}
			want := spans.live()
			if got := collect(tr.EachSpan); !slices.Equal(got, want) {
				t.Fatalf("size %d after %d pushes: EachSpan gave %d spans, reference %d (or order differs)",
					size, pushed, len(got), len(want))
			}
			if tr.SpanCount() != spans.n || tr.Dropped() != dropped {
				t.Fatalf("size %d after %d pushes: SpanCount %d Dropped %d, want %d/%d",
					size, pushed, tr.SpanCount(), tr.Dropped(), spans.n, dropped)
			}
			if got := collect(tr.EachTxn); !slices.Equal(got, txns.live()) {
				t.Fatalf("size %d after %d pushes: EachTxn differs from the reference", size, pushed)
			}
			for _, w := range [][2]units.Time{{0, 10}, {2500, 2600}, {5000, 9000}, {9990, 20000}, {0, 20000}, {700, 700}} {
				var brute []Span
				for _, s := range want {
					if s.End > w[0] && s.Start < w[1] {
						brute = append(brute, s)
					}
				}
				var got []Span
				n := tr.SpansInWindow(w[0], w[1], func(s Span) { got = append(got, s) })
				if n != len(brute) || !slices.Equal(got, brute) {
					t.Fatalf("size %d after %d pushes: SpansInWindow%v visited %d spans, brute force %d (or order differs)",
						size, pushed, w, n, len(brute))
				}
			}
		}
	}
}

// TestSpanRingBounded records 3×SpanCap spans into a ring whose cap is
// not a chunk multiple. A span must be stored in 24 bytes. Construction
// must not presize the ring; the first pass may allocate at most its
// ceil(cap/chunk) chunks of stored records, and once the ring has wrapped,
// recording must not allocate at all.
func TestSpanRingBounded(t *testing.T) {
	const spanCap = chunkLen + chunkLen/2 + 3
	if size := unsafe.Sizeof(spanRec{}); size != 24 {
		t.Fatalf("a stored span takes %d bytes, want 24", size)
	}
	chunkBytes := uint64(chunkLen * unsafe.Sizeof(spanRec{}))
	// TotalAlloc is process-wide. Hold one P for the measured stretch, as
	// testing.AllocsPerRun does, so the scheduler cannot start (and
	// heap-allocate) a new M while it runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := New(Config{SpanCap: spanCap, TxnCap: 1})
	runtime.ReadMemStats(&m1)
	if built := m1.TotalAlloc - m0.TotalAlloc; built >= chunkBytes/64 {
		t.Errorf("New allocated %d bytes: the ring is presized", built)
	}
	hop := tr.RegisterHop("h", KindStage)
	tr.Enable()
	tr.SetActive(1)
	record := func(n int) {
		for i := 0; i < n; i++ {
			at := units.Time(i)
			tr.Range(hop, CauseProcessing, at, at+1)
		}
	}
	runtime.ReadMemStats(&m1)
	record(spanCap)
	runtime.ReadMemStats(&m2)
	record(2 * spanCap)
	runtime.ReadMemStats(&m3)
	chunks := uint64((spanCap + chunkLen - 1) / chunkLen)
	if grew := m2.TotalAlloc - m1.TotalAlloc; grew > chunks*chunkBytes {
		t.Errorf("filling a %d-span ring allocated %d bytes, more than its %d chunks (%d bytes)",
			spanCap, grew, chunks, chunks*chunkBytes)
	}
	if grew := m3.TotalAlloc - m2.TotalAlloc; grew != 0 {
		t.Errorf("full ring allocated %d bytes over %d more spans", grew, 2*spanCap)
	}
	if tr.SpanCount() != spanCap || tr.Dropped() != 2*spanCap {
		t.Fatalf("live %d dropped %d, want %d/%d", tr.SpanCount(), tr.Dropped(), spanCap, 2*spanCap)
	}
}

// TestSpanPackingLossless round-trips spans at the packing limits — the
// largest transaction id, id 0, every cause, the largest hop, and times
// from MinInt64 to MaxInt64 — through pack and back, and through a
// tracer's ring for the hops a test can register.
func TestSpanPackingLossless(t *testing.T) {
	times := [][2]units.Time{
		{math.MinInt64, math.MinInt64 + 1}, {-5, -1}, {-1, 1},
		{0, math.MaxInt64}, {math.MaxInt64 - 1, math.MaxInt64},
	}
	for _, txn := range []uint64{0, 1, 1<<40 - 1} {
		for _, hop := range []HopID{0, 1, 1<<21 - 1} {
			for c := Cause(0); c < NumCauses; c++ {
				for _, w := range times {
					s := Span{Txn: txn, Start: w[0], End: w[1], Hop: hop, Cause: c}
					if got := pack(s).span(); got != s {
						t.Fatalf("pack(%+v) decodes to %+v", s, got)
					}
				}
			}
		}
	}

	tr := New(Config{})
	hops := []HopID{tr.RegisterHop("a", KindChannel), tr.RegisterHop("b", KindDevice)}
	tr.Enable()
	var want []Span
	for _, txn := range []uint64{0, 1<<40 - 1} {
		tr.SetActive(txn)
		for c := Cause(0); c < NumCauses; c++ {
			for _, w := range times {
				s := Span{Txn: txn, Start: w[0], End: w[1], Hop: hops[int(c)%2], Cause: c}
				tr.Range(s.Hop, s.Cause, s.Start, s.End)
				want = append(want, s)
			}
		}
	}
	if got := collect(tr.EachSpan); !slices.Equal(got, want) {
		t.Fatalf("EachSpan gave back %d spans that differ from the %d recorded", len(got), len(want))
	}
}

// TestSpanPackingLimits: recording a span for a transaction id the tag
// cannot hold, or registering a hop past its hop field, must panic rather
// than corrupt the record. The hop limit is checked through hopID, which
// RegisterHop calls, so the test registers no million hops.
func TestSpanPackingLimits(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	tr := New(Config{})
	hop := tr.RegisterHop("h", KindStage)
	tr.Enable()
	tr.SetActive(1 << 40)
	mustPanic("a span for transaction 1<<40", func() { tr.Range(hop, CauseProcessing, 0, 1) })
	mustPanic("hop 1<<21", func() { hopID(1 << 21) })
	if id := hopID(1<<21 - 1); id != 1<<21-1 {
		t.Fatalf("hopID(1<<21 - 1) = %d", id)
	}
}
