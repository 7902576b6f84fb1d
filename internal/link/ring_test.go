package link

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestDepartureRingBounded keeps a depth-64 channel saturated for 1M
// messages. Once warm, the send path must not allocate at all, and the
// departure ring must be sized by the channel's peak occupancy rather than
// by the number of messages it has carried.
func TestDepartureRingBounded(t *testing.T) {
	const messages = 1 << 20
	eng := sim.New(1)
	ch := NewChannel(eng, "ring", units.GBps(32), 5*units.Nanosecond, 64)
	delivered := 0
	deliver := func() { delivered++ }
	peak := 0
	var pump func()
	pump = func() {
		for ch.TrySend(units.CacheLine, deliver) {
		}
		if q := ch.Queued(); q > peak {
			peak = q
		}
		eng.After(2*units.Nanosecond, pump)
	}
	eng.After(0, pump)
	for ch.Messages() < messages/2 {
		eng.Step()
	}
	// TotalAlloc is process-wide. Hold one P for the measured stretch, as
	// testing.AllocsPerRun does, so the scheduler cannot start (and
	// heap-allocate) a new M while it runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for ch.Messages() < messages {
		eng.Step()
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew != 0 {
		t.Errorf("saturated channel allocated %d bytes over its second %d messages", grew, messages/2)
	}
	if peak != 64 {
		t.Errorf("peak occupancy %d, want the depth 64", peak)
	}
	if n := len(ch.dep); n > 2*peak {
		t.Errorf("departure ring holds %d slots for a peak occupancy of %d", n, peak)
	}
	if delivered < messages/2 {
		t.Errorf("only %d of %d messages delivered", delivered, messages)
	}
}

// ringChannel is what FuzzDepartureRing drives: the channel under test,
// or the reference model below.
type ringChannel interface {
	trySend(size units.ByteSize, deliver func()) bool
	send(size units.ByteSize, deliver func())
	queued() int
}

// refChannel is the classic channel the departure ring stands in for:
// every accepted message schedules a real depart event, so occupancy is a
// plain counter.
type refChannel struct {
	eng      *sim.Engine
	capacity units.Bandwidth
	latency  units.Time
	depth    int
	nextFree units.Time
	occ      int
	departFn func()
}

func (r *refChannel) trySend(size units.ByteSize, deliver func()) bool {
	if r.occ >= r.depth {
		return false
	}
	r.send(size, deliver)
	return true
}

func (r *refChannel) send(size units.ByteSize, deliver func()) {
	start := r.eng.Now()
	if r.nextFree > start {
		start = r.nextFree
	}
	done := start + r.capacity.TimeToSend(size)
	r.nextFree = done
	r.occ++
	r.eng.At(done, r.departFn)
	if deliver != nil {
		r.eng.At(done+r.latency, deliver)
	}
}

func (r *refChannel) queued() int { return r.occ }

// checkedChannel is the channel under test, checking after every send
// that the ring never holds more than twice its peak live stamps.
type checkedChannel struct {
	t    *testing.T
	c    *Channel
	peak int
}

func (k *checkedChannel) check() {
	if k.c.depLen > k.peak {
		k.peak = k.c.depLen
	}
	if n := len(k.c.dep); n > minDepartures && n > 2*k.peak {
		k.t.Fatalf("ring holds %d slots for a peak of %d live stamps", n, k.peak)
	}
}

func (k *checkedChannel) trySend(size units.ByteSize, deliver func()) bool {
	ok := k.c.TrySend(size, deliver)
	k.check()
	return ok
}

func (k *checkedChannel) send(size units.ByteSize, deliver func()) {
	k.c.Send(size, deliver)
	k.check()
}

func (k *checkedChannel) queued() int { return k.c.Queued() }

// runRingScript interprets ops on one channel and logs every admission
// verdict and occupancy reading. Each op's low three bits pick the
// action and the rest is its argument: sends of 1-4 ns at 32 GB/s,
// bounded, unbounded or without delivery; an occupancy read now; a probe
// event that reads occupancy at a later stamp (in half-nanosecond steps,
// so probes often land exactly on departure stamps, before or after the
// departure's own sequence number); or a clock advance, which may be zero
// to read again at the same stamp under a later sequence number.
func runRingScript(eng *sim.Engine, ch ringChannel, ops []byte) []int {
	var log []int
	deliver := func() {}
	probe := func() { log = append(log, 1000+ch.queued()) }
	i := 0
	var drive func()
	drive = func() {
		for i < len(ops) {
			op, arg := ops[i]&7, int(ops[i]>>3)
			i++
			size := units.ByteSize(32 * (1 + arg%4))
			step := units.Time(arg) * units.Nanosecond / 2
			switch op {
			case 0, 1:
				if ch.trySend(size, deliver) {
					log = append(log, 1)
				} else {
					log = append(log, 0)
				}
			case 2:
				ch.send(size, deliver)
			case 3:
				ch.send(size, nil)
			case 4:
				log = append(log, 100+ch.queued())
			case 5:
				eng.After(step, probe)
			default:
				eng.After(step, drive)
				return
			}
		}
	}
	eng.At(0, drive)
	eng.Run()
	return append(log, ch.queued())
}

// FuzzDepartureRing checks the departure ring against the classic model
// it replaces: the same script run on a Channel and on a reference that
// schedules a real depart event per message must admit the same messages
// and read the same occupancy at every point, including reads at a
// departure's own stamp. The seed corpus is in testdata/fuzz.
func FuzzDepartureRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, depth, latency uint8, ops []byte) {
		d := 1 + int(depth%16)
		lat := units.Time(latency%8) * units.Nanosecond
		capacity := units.GBps(32)

		refEng := sim.New(1)
		ref := &refChannel{eng: refEng, capacity: capacity, latency: lat, depth: d}
		ref.departFn = func() { ref.occ-- }
		want := runRingScript(refEng, ref, ops)

		eng := sim.New(1)
		ch := &checkedChannel{t: t, c: NewChannel(eng, "fuzz", capacity, lat, d)}
		got := runRingScript(eng, ch, ops)

		if len(got) != len(want) {
			t.Fatalf("log lengths differ: ring %d, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d: ring logged %d, reference %d\nring %v\nref  %v", i, got[i], want[i], got, want)
			}
		}
		if eng.Now() != refEng.Now() {
			t.Fatalf("final clock %v, reference %v", eng.Now(), refEng.Now())
		}
	})
}
