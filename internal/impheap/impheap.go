// Package impheap implements the H-heap of the paper's §III-B: a small-top
// (min) heap keyed by sample importance value, with O(log n) insert, remove,
// and update by sample ID, plus the shadow-heap protocol used to absorb
// mutations while the main heap is frozen after an importance update.
//
// The heap object the paper describes is a pair <importance value, reference
// to the cached item>; here the reference is the sample ID, which is how the
// H-cache key-value store is addressed.
package impheap

import (
	"fmt"

	"icache/internal/dataset"
)

// Entry is one heap element: a sample and its importance value.
type Entry struct {
	ID dataset.SampleID
	IV float64
}

// Heap is a min-heap of entries ordered by importance value with an ID
// index. Ties on IV break by ascending ID so iteration order is
// deterministic. The zero value is not usable; call New.
type Heap struct {
	es  []Entry
	pos map[dataset.SampleID]int
}

// New returns an empty heap.
func New() *Heap {
	return &Heap{pos: make(map[dataset.SampleID]int)}
}

// NewFromEntries heapifies the given entries in O(n). Duplicate IDs are an
// error.
func NewFromEntries(entries []Entry) (*Heap, error) {
	h := &Heap{es: append([]Entry(nil), entries...), pos: make(map[dataset.SampleID]int, len(entries))}
	for i, e := range h.es {
		if _, dup := h.pos[e.ID]; dup {
			return nil, fmt.Errorf("impheap: duplicate ID %d", e.ID)
		}
		h.pos[e.ID] = i
	}
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h, nil
}

// Len reports the number of entries.
func (h *Heap) Len() int { return len(h.es) }

// less orders by IV then ID for determinism.
func (h *Heap) less(i, j int) bool {
	if h.es[i].IV != h.es[j].IV {
		return h.es[i].IV < h.es[j].IV
	}
	return h.es[i].ID < h.es[j].ID
}

func (h *Heap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.pos[h.es[i].ID] = i
	h.pos[h.es[j].ID] = j
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// Insert adds a new entry. Inserting an ID already present is an error;
// callers that want upsert semantics use Update first.
func (h *Heap) Insert(id dataset.SampleID, iv float64) error {
	if _, ok := h.pos[id]; ok {
		return fmt.Errorf("impheap: ID %d already present", id)
	}
	h.es = append(h.es, Entry{ID: id, IV: iv})
	h.pos[id] = len(h.es) - 1
	h.up(len(h.es) - 1)
	return nil
}

// Min returns the top-node — the entry with the smallest importance value —
// without removing it.
func (h *Heap) Min() (Entry, bool) {
	if len(h.es) == 0 {
		return Entry{}, false
	}
	return h.es[0], true
}

// PopMin removes and returns the top-node.
func (h *Heap) PopMin() (Entry, bool) {
	if len(h.es) == 0 {
		return Entry{}, false
	}
	top := h.es[0]
	h.removeAt(0)
	return top, true
}

// Remove deletes the entry for id, reporting whether it was present.
func (h *Heap) Remove(id dataset.SampleID) bool {
	i, ok := h.pos[id]
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

func (h *Heap) removeAt(i int) {
	last := len(h.es) - 1
	removed := h.es[i].ID
	if i != last {
		h.swap(i, last)
	}
	h.es = h.es[:last]
	delete(h.pos, removed) // after the swap, which re-indexes both slots
	if i < len(h.es) {
		h.down(i)
		h.up(i)
	}
}

// Update changes the importance value of id, reporting whether it was
// present.
func (h *Heap) Update(id dataset.SampleID, iv float64) bool {
	i, ok := h.pos[id]
	if !ok {
		return false
	}
	h.es[i].IV = iv
	h.down(i)
	h.up(i)
	return true
}

// Value returns the importance value stored for id.
func (h *Heap) Value(id dataset.SampleID) (float64, bool) {
	i, ok := h.pos[id]
	if !ok {
		return 0, false
	}
	return h.es[i].IV, true
}

// Contains reports whether id is in the heap.
func (h *Heap) Contains(id dataset.SampleID) bool {
	_, ok := h.pos[id]
	return ok
}

// Entries returns a copy of all entries in heap-internal (not sorted) order.
func (h *Heap) Entries() []Entry {
	return append([]Entry(nil), h.es...)
}

// Shadowed wraps a main heap with the paper's shadow-heap protocol.
//
// In normal operation every mutation goes straight to the main heap. After
// an importance-value refresh the cache manager calls Freeze: the main heap
// becomes read-only except for evictions (PopMin/Remove), and insertions and
// value updates are recorded in a shadow heap instead. Thaw merges the
// shadow into the main heap in one O(n) rebuild. This keeps eviction
// decisions O(log n) on a stable ordering while an epoch's worth of changes
// accumulates, instead of rebuilding the heap on every value change.
type Shadowed struct {
	main    *Heap
	shadow  *Heap
	pending map[dataset.SampleID]float64 // value updates recorded while frozen
	frozen  bool
}

// NewShadowed returns an empty shadowed heap in normal (unfrozen) mode.
func NewShadowed() *Shadowed {
	return &Shadowed{main: New(), shadow: New(), pending: make(map[dataset.SampleID]float64)}
}

// Frozen reports whether the shadow protocol is active.
func (s *Shadowed) Frozen() bool { return s.frozen }

// Len reports the total number of live entries (main + shadow).
func (s *Shadowed) Len() int { return s.main.Len() + s.shadow.Len() }

// Freeze switches mutations to the shadow heap. Freezing twice is an error.
func (s *Shadowed) Freeze() error {
	if s.frozen {
		return fmt.Errorf("impheap: already frozen")
	}
	s.frozen = true
	return nil
}

// Thaw merges the shadow heap and the pending value updates into the main
// heap and resumes normal operation. Thawing an unfrozen heap is an error.
func (s *Shadowed) Thaw() error {
	if !s.frozen {
		return fmt.Errorf("impheap: not frozen")
	}
	merged := s.main.Entries()
	for i := range merged {
		if iv, ok := s.pending[merged[i].ID]; ok {
			merged[i].IV = iv
		}
	}
	merged = append(merged, s.shadow.Entries()...)
	rebuilt, err := NewFromEntries(merged)
	if err != nil {
		return fmt.Errorf("impheap: thaw merge: %w", err)
	}
	s.main = rebuilt
	s.shadow = New()
	clear(s.pending) // keeps its buckets: the next frozen period refills it
	s.frozen = false
	return nil
}

// Insert adds an entry, to the main heap normally or to the shadow heap
// while frozen. The ID must not already be present in either heap.
func (s *Shadowed) Insert(id dataset.SampleID, iv float64) error {
	if s.main.Contains(id) || s.shadow.Contains(id) {
		return fmt.Errorf("impheap: ID %d already present", id)
	}
	if s.frozen {
		return s.shadow.Insert(id, iv)
	}
	return s.main.Insert(id, iv)
}

// Update records a new importance value for id. While frozen the main
// heap's ordering is left untouched and the update lands in the pending set
// (or directly in the shadow heap if the entry lives there).
func (s *Shadowed) Update(id dataset.SampleID, iv float64) bool {
	if s.shadow.Contains(id) {
		return s.shadow.Update(id, iv)
	}
	if !s.main.Contains(id) {
		return false
	}
	if s.frozen {
		s.pending[id] = iv
		return true
	}
	return s.main.Update(id, iv)
}

// Min returns the eviction candidate. While frozen this is the main heap's
// top-node — the paper keeps the frozen heap authoritative for eviction —
// falling back to the shadow only when the main heap is empty.
func (s *Shadowed) Min() (Entry, bool) {
	if e, ok := s.main.Min(); ok {
		return e, true
	}
	return s.shadow.Min()
}

// PopMin evicts the candidate Min would return.
func (s *Shadowed) PopMin() (Entry, bool) {
	if e, ok := s.main.PopMin(); ok {
		delete(s.pending, e.ID)
		return e, true
	}
	return s.shadow.PopMin()
}

// Remove deletes id from whichever heap holds it (evictions are always
// allowed, frozen or not).
func (s *Shadowed) Remove(id dataset.SampleID) bool {
	if s.main.Remove(id) {
		delete(s.pending, id)
		return true
	}
	return s.shadow.Remove(id)
}

// Contains reports whether id is live in either heap.
func (s *Shadowed) Contains(id dataset.SampleID) bool {
	return s.main.Contains(id) || s.shadow.Contains(id)
}

// Value returns the most recent importance value known for id, preferring
// pending updates over the frozen main heap's stale values.
func (s *Shadowed) Value(id dataset.SampleID) (float64, bool) {
	if iv, ok := s.shadow.Value(id); ok {
		return iv, true
	}
	if iv, ok := s.pending[id]; ok {
		return iv, true
	}
	return s.main.Value(id)
}

// Entries returns every live entry with its most recent value.
func (s *Shadowed) Entries() []Entry {
	out := s.main.Entries()
	for i := range out {
		if iv, ok := s.pending[out[i].ID]; ok {
			out[i].IV = iv
		}
	}
	return append(out, s.shadow.Entries()...)
}
