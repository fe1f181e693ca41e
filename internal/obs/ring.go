package obs

import "sync"

// Ring is a bounded ring of T under one mutex: once capacity entries are
// held, each append overwrites the oldest. It is the one ring behind the
// trace recorder, the control-plane journal and the timeline; every reading
// (Snapshot, Len, Total, Dropped) is taken under the same lock as the
// appends, so entries come back in append order and Dropped == Total − Len
// holds within every reading.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64 // entries ever appended; total % len(buf) is the next slot
}

// NewRing builds a ring retaining capacity entries (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Append adds v, overwriting the oldest entry once the ring is full.
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = v
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained entries oldest-first and how many older
// entries wraparound overwrote, both from one lock hold: entry i is the
// (dropped+i+1)-th ever appended. An empty ring returns a nil slice.
func (r *Ring[T]) Snapshot() (entries []T, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return append([]T(nil), r.buf[:r.total]...), 0
	}
	i := r.total % uint64(len(r.buf))
	entries = make([]T, 0, len(r.buf))
	entries = append(append(entries, r.buf[i:]...), r.buf[:i]...)
	return entries, r.total - uint64(len(r.buf))
}

// Len reports how many entries are retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.total, uint64(len(r.buf))))
}

// Total reports how many entries were ever appended.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many entries wraparound overwrote: Total − Len, read
// under one lock hold (two separate reads can straddle an Append and make
// the unsigned difference wrap).
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - min(r.total, uint64(len(r.buf)))
}
