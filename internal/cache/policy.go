// Package cache provides the byte-budgeted cache the paper's baselines run:
// LRU (Default, Base, Quiver, +IIS), LFU (iLFU), MinIO (CoorDL), Unbounded
// (Oracle, filled up front), None (no cache), and the FIFO and CLOCK
// policies of the policy comparison.
//
// They are one type, Policy. It owns the byte ledger and the one admission
// rule; an unexported order decides only what an access promotes and which
// resident goes next. A doubly-linked list serves LRU (an access moves to the
// front) and FIFO (nothing moves); LFU keeps a (frequency, admission) heap;
// CLOCK keeps a ring and a hand. MinIO, Unbounded and None have no order:
// MinIO refuses once full, Unbounded has no budget, None a zero one.
//
// A policy only decides residency. The fetch path that consults it is
// icache.Server's, the same one that runs iCache's H/L split: a baseline is
// the engine built with one of these policies (icache.NewBaselineServer).
// iCache's own H- and L-regions are not built from them: the paper's point
// is that recency/frequency policies are the wrong tool once importance
// sampling drives the access stream.
package cache

import (
	"container/heap"
	"fmt"
	"math"

	"icache/internal/dataset"
)

// Policy is a byte-budgeted cache over sample IDs. It is not safe for
// concurrent use; the simulation is sequential and the RPC server serializes
// access.
type Policy struct {
	name      string
	budget    int64
	used      int64
	entries   map[dataset.SampleID]*entry
	evictions int64
	order     order // nil: nothing is promoted and nothing evicted
}

// order is a policy's eviction order over its residents.
type order interface {
	// add places a newly admitted resident.
	add(e *entry)
	// promote records an access to a resident.
	promote(e *entry)
	// victim names the resident that goes next; there is at least one.
	victim() *entry
	// remove takes e out of the order.
	remove(e *entry)
	// residents appends the residents' IDs in the order's own sequence.
	residents(dst []dataset.SampleID) []dataset.SampleID
}

// entry is one resident: its size, and the fields its order keeps.
type entry struct {
	id         dataset.SampleID
	size       int
	prev, next *entry // list
	freq, seq  int64  // lfu: access count, admission number
	pos        int    // lfu: heap index; clock: ring index
	referenced bool   // clock
}

// NewLRU builds a least-recently-used policy with the given byte capacity:
// the Default baseline's cache and the cache under Base.
func NewLRU(capacityBytes int64) *Policy {
	return bounded("lru", capacityBytes, newList(true))
}

// NewFIFO builds a policy that evicts in admission order, ignoring accesses
// entirely: the simplest bounded cache and a lower bar for the policy
// comparison.
func NewFIFO(capacityBytes int64) *Policy {
	return bounded("fifo", capacityBytes, newList(false))
}

// NewLFU builds a least-frequently-used policy with FIFO tie-breaking,
// backing the iLFU baseline of §V-C (IIS plus a frequency cache). The
// paper's point is that frequency is *reactive* to importance changes; the
// benchmark reproduces that lag.
func NewLFU(capacityBytes int64) *Policy {
	return bounded("lfu", capacityBytes, &lfu{})
}

// NewClock builds the second-chance policy OS page caches use (§II-C names
// the OS page cache as the recency/frequency archetype iCache replaces): a
// circular scan clears reference bits and evicts the first unreferenced
// entry.
func NewClock(capacityBytes int64) *Policy {
	return bounded("clock", capacityBytes, &clock{})
}

// NewMinIO builds CoorDL's cache: samples are admitted until the cache fills
// and are then never evicted or replaced ("CoorDL never replaces data items
// in its MinIO cache"). Its hit ratio is pinned at capacity/dataset — and, as
// the paper observes, it has no way to prefer H-samples once full.
func NewMinIO(capacityBytes int64) *Policy {
	return bounded("minio", capacityBytes, nil)
}

// NewUnbounded builds a policy that admits everything: the Oracle
// configuration, where the whole dataset fits in memory.
func NewUnbounded() *Policy { return newPolicy("unbounded", math.MaxInt64, nil) }

// None builds a policy that caches nothing: it refuses every Admit, so every
// request it fronts reads the backend — the NoCache configuration of Fig. 2.
func None() *Policy { return newPolicy("none", 0, nil) }

func bounded(name string, capacityBytes int64, o order) *Policy {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("cache: %s capacity %d", name, capacityBytes))
	}
	return newPolicy(name, capacityBytes, o)
}

func newPolicy(name string, budget int64, o order) *Policy {
	return &Policy{name: name, budget: budget, entries: make(map[dataset.SampleID]*entry), order: o}
}

// Name identifies the policy in experiment output.
func (p *Policy) Name() string { return p.name }

// Touch records an access to id and reports whether it was cached.
func (p *Policy) Touch(id dataset.SampleID) bool {
	e, ok := p.entries[id]
	if ok && p.order != nil {
		p.order.promote(e)
	}
	return ok
}

// Contains reports whether id is cached, without recording an access.
func (p *Policy) Contains(id dataset.SampleID) bool {
	_, ok := p.entries[id]
	return ok
}

// Admit offers a fetched sample of the given size and reports whether it is
// resident afterwards. A resident is touched. A sample larger than the whole
// budget is refused rather than flushing the cache; otherwise the order's
// victims are evicted until the sample fits, and a policy without an order
// refuses instead.
func (p *Policy) Admit(id dataset.SampleID, size int) bool {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Admit size %d", size))
	}
	if p.Touch(id) {
		return true
	}
	if int64(size) > p.budget {
		return false
	}
	for p.used+int64(size) > p.budget {
		if p.order == nil {
			return false
		}
		p.drop(p.order.victim())
		p.evictions++
	}
	e := &entry{id: id, size: size}
	p.entries[id] = e
	p.used += int64(size)
	if p.order != nil {
		p.order.add(e)
	}
	return true
}

// Remove drops id if present, reporting whether it was cached.
func (p *Policy) Remove(id dataset.SampleID) bool {
	e, ok := p.entries[id]
	if ok {
		p.drop(e)
	}
	return ok
}

func (p *Policy) drop(e *entry) {
	if p.order != nil {
		p.order.remove(e)
	}
	delete(p.entries, e.id)
	p.used -= int64(e.size)
}

// Len reports the number of cached samples.
func (p *Policy) Len() int { return len(p.entries) }

// Evictions reports the cumulative eviction count.
func (p *Policy) Evictions() int64 { return p.evictions }

// Residents appends all cached IDs to dst and returns it: LRU most recent
// first, FIFO oldest first, LFU in heap order, CLOCK in ring order, and the
// policies without an order in map order, which callers must not rely on.
func (p *Policy) Residents(dst []dataset.SampleID) []dataset.SampleID {
	if p.order != nil {
		return p.order.residents(dst)
	}
	for id := range p.entries {
		dst = append(dst, id)
	}
	return dst
}

// list keeps residents newest first and evicts from the back. With recency
// (LRU) an access moves a resident to the front; without it (FIFO) nothing
// moves.
type list struct {
	root    entry // root.next is the newest resident, root.prev the oldest
	recency bool
}

func newList(recency bool) *list {
	l := &list{recency: recency}
	l.root.next, l.root.prev = &l.root, &l.root
	return l
}

func (l *list) add(e *entry) {
	e.prev, e.next = &l.root, l.root.next
	l.root.next.prev = e
	l.root.next = e
}

func (l *list) promote(e *entry) {
	if l.recency && l.root.next != e {
		l.remove(e)
		l.add(e)
	}
}

func (l *list) victim() *entry { return l.root.prev }

func (l *list) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// residents lists LRU most recent first and FIFO oldest first.
func (l *list) residents(dst []dataset.SampleID) []dataset.SampleID {
	if l.recency {
		for e := l.root.next; e != &l.root; e = e.next {
			dst = append(dst, e.id)
		}
		return dst
	}
	for e := l.root.prev; e != &l.root; e = e.prev {
		dst = append(dst, e.id)
	}
	return dst
}

// lfu is a min-heap on (access count, admission number): the least
// frequently used resident goes next, the earliest admitted among equals.
type lfu struct {
	h   lfuHeap
	seq int64
}

func (l *lfu) add(e *entry) {
	l.seq++
	e.freq, e.seq = 1, l.seq
	heap.Push(&l.h, e)
}

func (l *lfu) promote(e *entry) {
	e.freq++
	heap.Fix(&l.h, e.pos)
}

func (l *lfu) victim() *entry { return l.h[0] }

func (l *lfu) remove(e *entry) { heap.Remove(&l.h, e.pos) }

func (l *lfu) residents(dst []dataset.SampleID) []dataset.SampleID {
	for _, e := range l.h {
		dst = append(dst, e.id)
	}
	return dst
}

// lfuHeap implements heap.Interface, keeping each entry's pos current.
type lfuHeap []*entry

func (h lfuHeap) Len() int { return len(h) }

func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}

func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *lfuHeap) Push(x any) {
	e := x.(*entry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *lfuHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// clock is the second-chance ring: an access sets a resident's reference
// bit, and the hand clears set bits until it reaches a clear one.
type clock struct {
	ring []*entry
	hand int
}

func (c *clock) add(e *entry) {
	e.pos = len(c.ring)
	c.ring = append(c.ring, e)
}

func (c *clock) promote(e *entry) { e.referenced = true }

func (c *clock) victim() *entry {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if !e.referenced {
			return e
		}
		e.referenced = false
		c.hand++
	}
}

// remove fills e's slot with the last entry of the ring.
func (c *clock) remove(e *entry) {
	last := c.ring[len(c.ring)-1]
	c.ring[e.pos] = last
	last.pos = e.pos
	c.ring = c.ring[:len(c.ring)-1]
}

func (c *clock) residents(dst []dataset.SampleID) []dataset.SampleID {
	for _, e := range c.ring {
		dst = append(dst, e.id)
	}
	return dst
}
