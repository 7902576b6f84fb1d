package trace

// chunkShift sets the ring's chunk size: 1<<16 entries, 1.5 MiB of spans.
const (
	chunkShift = 16
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// ring is a bounded FIFO of at most cap entries that overwrites its oldest
// entry once full. Storage comes in fixed chunks of chunkLen entries (the
// last one clipped to cap), each allocated by the first write into it and
// never copied or regrown, so a recorder pays only for the entries it has
// written and a wrapped ring writes in place.
type ring[T any] struct {
	chunks [][]T
	cap    int
	pos    int // next write slot
	n      int // live entries (<= cap)
}

func newRing[T any](size int) ring[T] {
	return ring[T]{chunks: make([][]T, (size+chunkMask)>>chunkShift), cap: size}
}

// push appends v and reports whether it overwrote the oldest entry.
func (r *ring[T]) push(v T) (overwrote bool) {
	c := r.chunks[r.pos>>chunkShift]
	if c == nil {
		c = r.grow()
	}
	c[r.pos&chunkMask] = v
	r.pos++
	if r.pos == r.cap {
		r.pos = 0
	}
	if r.n == r.cap {
		return true
	}
	r.n++
	return false
}

// grow allocates the chunk holding slot pos, which is its first slot: the
// ring fills chunks in order and wraps only once every chunk exists.
func (r *ring[T]) grow() []T {
	c := make([]T, min(chunkLen, r.cap-r.pos))
	r.chunks[r.pos>>chunkShift] = c
	return c
}

// each visits the live entries oldest-first.
func (r *ring[T]) each(fn func(T)) {
	if r.n < r.cap {
		r.walk(0, r.n, fn)
		return
	}
	r.walk(r.pos, r.cap, fn)
	r.walk(0, r.pos, fn)
}

// walk visits slots [from, to) chunk by chunk.
func (r *ring[T]) walk(from, to int, fn func(T)) {
	for from < to {
		off := from & chunkMask
		c := r.chunks[from>>chunkShift][off:min(chunkLen, off+to-from)]
		for _, v := range c {
			fn(v)
		}
		from += len(c)
	}
}
