// Package cache provides the byte-budgeted cache policies the paper's
// baselines run: LRU (Default, Base, Quiver, +IIS), LFU (iLFU), MinIO
// (CoorDL), Unbounded (Oracle, filled up front), None (no cache), and the
// FIFO and CLOCK policies of the policy comparison.
//
// A policy only decides residency. The fetch path that consults it is
// icache.Server's, the same one that runs iCache's H/L split: a baseline is
// the engine built with one of these policies (icache.NewBaselineServer).
// iCache's own H- and L-regions are not built from them: the paper's point
// is that recency/frequency policies are the wrong tool once importance
// sampling drives the access stream.
package cache

import (
	"fmt"

	"icache/internal/dataset"
)

// Policy is a byte-capacity cache eviction policy over sample IDs. Policies
// are not safe for concurrent use; the simulation is sequential and the RPC
// server serializes access.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Touch records an access to id and reports whether it was cached.
	Touch(id dataset.SampleID) bool
	// Contains reports whether id is cached, without recording an access.
	Contains(id dataset.SampleID) bool
	// Admit offers a fetched sample of the given size. The policy may evict
	// to make room; it reports whether the sample was admitted.
	Admit(id dataset.SampleID, size int) bool
	// Remove drops id if present, reporting whether it was cached.
	Remove(id dataset.SampleID) bool
	// Len reports the number of cached samples.
	Len() int
	// UsedBytes reports the cached byte volume.
	UsedBytes() int64
	// CapacityBytes reports the configured byte budget (0 = no budget:
	// Unbounded admits everything, None nothing).
	CapacityBytes() int64
	// Evictions reports the cumulative eviction count.
	Evictions() int64
	// Residents appends all cached IDs to dst and returns it; order is
	// unspecified but deterministic for a given history.
	Residents(dst []dataset.SampleID) []dataset.SampleID
}

// entry is a doubly-linked node shared by the list-based policies.
type entry struct {
	id         dataset.SampleID
	size       int
	freq       int64
	prev, next *entry
}

// LRU is a classic least-recently-used policy: the Default baseline's cache
// and the cache under Base.
type LRU struct {
	cap       int64
	used      int64
	items     map[dataset.SampleID]*entry
	head      *entry // most recent
	tail      *entry // least recent
	evictions int64
}

// NewLRU builds an LRU policy with the given byte capacity.
func NewLRU(capacityBytes int64) *LRU {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("cache: LRU capacity %d", capacityBytes))
	}
	return &LRU{cap: capacityBytes, items: make(map[dataset.SampleID]*entry)}
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

func (l *LRU) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *LRU) pushFront(e *entry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// Touch implements Policy.
func (l *LRU) Touch(id dataset.SampleID) bool {
	e, ok := l.items[id]
	if !ok {
		return false
	}
	if l.head != e {
		l.unlink(e)
		l.pushFront(e)
	}
	return true
}

// Contains implements Policy.
func (l *LRU) Contains(id dataset.SampleID) bool {
	_, ok := l.items[id]
	return ok
}

// Admit implements Policy. Samples larger than the whole capacity are
// rejected rather than flushing the cache.
func (l *LRU) Admit(id dataset.SampleID, size int) bool {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Admit size %d", size))
	}
	if l.Contains(id) {
		l.Touch(id)
		return true
	}
	if int64(size) > l.cap {
		return false
	}
	for l.used+int64(size) > l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.items, victim.id)
		l.used -= int64(victim.size)
		l.evictions++
	}
	e := &entry{id: id, size: size}
	l.items[id] = e
	l.pushFront(e)
	l.used += int64(size)
	return true
}

// Remove implements Policy.
func (l *LRU) Remove(id dataset.SampleID) bool {
	e, ok := l.items[id]
	if !ok {
		return false
	}
	l.unlink(e)
	delete(l.items, id)
	l.used -= int64(e.size)
	return true
}

// Len implements Policy.
func (l *LRU) Len() int { return len(l.items) }

// UsedBytes implements Policy.
func (l *LRU) UsedBytes() int64 { return l.used }

// CapacityBytes implements Policy.
func (l *LRU) CapacityBytes() int64 { return l.cap }

// Evictions implements Policy.
func (l *LRU) Evictions() int64 { return l.evictions }

// Residents implements Policy (most- to least-recently used order).
func (l *LRU) Residents(dst []dataset.SampleID) []dataset.SampleID {
	for e := l.head; e != nil; e = e.next {
		dst = append(dst, e.id)
	}
	return dst
}

// LFU is a least-frequently-used policy with FIFO tie-breaking, backing the
// iLFU baseline of §V-C (IIS plus a frequency cache). The paper's point is
// that frequency is *reactive* to importance changes; the benchmark
// reproduces that lag.
type LFU struct {
	cap       int64
	used      int64
	items     map[dataset.SampleID]*lfuEntry
	heap      []*lfuEntry
	seq       int64
	evictions int64
}

type lfuEntry struct {
	id   dataset.SampleID
	size int
	freq int64
	seq  int64 // admission order, breaks frequency ties FIFO
	pos  int
}

// NewLFU builds an LFU policy with the given byte capacity.
func NewLFU(capacityBytes int64) *LFU {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("cache: LFU capacity %d", capacityBytes))
	}
	return &LFU{cap: capacityBytes, items: make(map[dataset.SampleID]*lfuEntry)}
}

// Name implements Policy.
func (l *LFU) Name() string { return "lfu" }

func (l *LFU) less(a, b *lfuEntry) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.seq < b.seq
}

func (l *LFU) swap(i, j int) {
	l.heap[i], l.heap[j] = l.heap[j], l.heap[i]
	l.heap[i].pos = i
	l.heap[j].pos = j
}

func (l *LFU) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !l.less(l.heap[i], l.heap[p]) {
			break
		}
		l.swap(i, p)
		i = p
	}
}

func (l *LFU) down(i int) {
	n := len(l.heap)
	for {
		least := i
		if c := 2*i + 1; c < n && l.less(l.heap[c], l.heap[least]) {
			least = c
		}
		if c := 2*i + 2; c < n && l.less(l.heap[c], l.heap[least]) {
			least = c
		}
		if least == i {
			return
		}
		l.swap(i, least)
		i = least
	}
}

func (l *LFU) removeAt(i int) *lfuEntry {
	e := l.heap[i]
	last := len(l.heap) - 1
	if i != last {
		l.swap(i, last)
	}
	l.heap = l.heap[:last]
	if i < len(l.heap) {
		l.down(i)
		l.up(i)
	}
	delete(l.items, e.id)
	l.used -= int64(e.size)
	return e
}

// Touch implements Policy.
func (l *LFU) Touch(id dataset.SampleID) bool {
	e, ok := l.items[id]
	if !ok {
		return false
	}
	e.freq++
	l.down(e.pos)
	return true
}

// Contains implements Policy.
func (l *LFU) Contains(id dataset.SampleID) bool {
	_, ok := l.items[id]
	return ok
}

// Admit implements Policy.
func (l *LFU) Admit(id dataset.SampleID, size int) bool {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Admit size %d", size))
	}
	if l.Touch(id) {
		return true
	}
	if int64(size) > l.cap {
		return false
	}
	for l.used+int64(size) > l.cap {
		l.removeAt(0)
		l.evictions++
	}
	l.seq++
	e := &lfuEntry{id: id, size: size, freq: 1, seq: l.seq, pos: len(l.heap)}
	l.items[id] = e
	l.heap = append(l.heap, e)
	l.up(e.pos)
	l.used += int64(size)
	return true
}

// Remove implements Policy.
func (l *LFU) Remove(id dataset.SampleID) bool {
	e, ok := l.items[id]
	if !ok {
		return false
	}
	l.removeAt(e.pos)
	return true
}

// Len implements Policy.
func (l *LFU) Len() int { return len(l.items) }

// UsedBytes implements Policy.
func (l *LFU) UsedBytes() int64 { return l.used }

// CapacityBytes implements Policy.
func (l *LFU) CapacityBytes() int64 { return l.cap }

// Evictions implements Policy.
func (l *LFU) Evictions() int64 { return l.evictions }

// Residents implements Policy (heap order).
func (l *LFU) Residents(dst []dataset.SampleID) []dataset.SampleID {
	for _, e := range l.heap {
		dst = append(dst, e.id)
	}
	return dst
}

// MinIO is CoorDL's cache: samples are admitted until the cache fills and
// are then never evicted or replaced ("CoorDL never replaces data items in
// its MinIO cache"). Its hit ratio is pinned at capacity/dataset — and, as
// the paper observes, it has no way to prefer H-samples once full.
type MinIO struct {
	cap   int64
	used  int64
	items map[dataset.SampleID]int
}

// NewMinIO builds a MinIO policy with the given byte capacity.
func NewMinIO(capacityBytes int64) *MinIO {
	if capacityBytes <= 0 {
		panic(fmt.Sprintf("cache: MinIO capacity %d", capacityBytes))
	}
	return &MinIO{cap: capacityBytes, items: make(map[dataset.SampleID]int)}
}

// Name implements Policy.
func (m *MinIO) Name() string { return "minio" }

// Touch implements Policy.
func (m *MinIO) Touch(id dataset.SampleID) bool { return m.Contains(id) }

// Contains implements Policy.
func (m *MinIO) Contains(id dataset.SampleID) bool {
	_, ok := m.items[id]
	return ok
}

// Admit implements Policy: insert-if-room, never evict.
func (m *MinIO) Admit(id dataset.SampleID, size int) bool {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Admit size %d", size))
	}
	if m.Contains(id) {
		return true
	}
	if m.used+int64(size) > m.cap {
		return false
	}
	m.items[id] = size
	m.used += int64(size)
	return true
}

// Remove implements Policy. MinIO never evicts on its own, but the owner may
// still drop entries (e.g. on reconfiguration).
func (m *MinIO) Remove(id dataset.SampleID) bool {
	size, ok := m.items[id]
	if !ok {
		return false
	}
	delete(m.items, id)
	m.used -= int64(size)
	return true
}

// Len implements Policy.
func (m *MinIO) Len() int { return len(m.items) }

// UsedBytes implements Policy.
func (m *MinIO) UsedBytes() int64 { return m.used }

// CapacityBytes implements Policy.
func (m *MinIO) CapacityBytes() int64 { return m.cap }

// Evictions implements Policy (always zero: MinIO never evicts).
func (m *MinIO) Evictions() int64 { return 0 }

// Residents implements Policy (map order — callers must not rely on it).
func (m *MinIO) Residents(dst []dataset.SampleID) []dataset.SampleID {
	for id := range m.items {
		dst = append(dst, id)
	}
	return dst
}

// Unbounded admits everything — the Oracle configuration where the whole
// dataset fits in memory.
type Unbounded struct {
	used  int64
	items map[dataset.SampleID]int
}

// NewUnbounded builds an unbounded policy.
func NewUnbounded() *Unbounded {
	return &Unbounded{items: make(map[dataset.SampleID]int)}
}

// Name implements Policy.
func (u *Unbounded) Name() string { return "unbounded" }

// Touch implements Policy.
func (u *Unbounded) Touch(id dataset.SampleID) bool { return u.Contains(id) }

// Contains implements Policy.
func (u *Unbounded) Contains(id dataset.SampleID) bool {
	_, ok := u.items[id]
	return ok
}

// Admit implements Policy.
func (u *Unbounded) Admit(id dataset.SampleID, size int) bool {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Admit size %d", size))
	}
	if !u.Contains(id) {
		u.items[id] = size
		u.used += int64(size)
	}
	return true
}

// Remove implements Policy.
func (u *Unbounded) Remove(id dataset.SampleID) bool {
	size, ok := u.items[id]
	if !ok {
		return false
	}
	delete(u.items, id)
	u.used -= int64(size)
	return true
}

// Len implements Policy.
func (u *Unbounded) Len() int { return len(u.items) }

// UsedBytes implements Policy.
func (u *Unbounded) UsedBytes() int64 { return u.used }

// CapacityBytes implements Policy (0 = unbounded).
func (u *Unbounded) CapacityBytes() int64 { return 0 }

// Evictions implements Policy.
func (u *Unbounded) Evictions() int64 { return 0 }

// Residents implements Policy.
func (u *Unbounded) Residents(dst []dataset.SampleID) []dataset.SampleID {
	for id := range u.items {
		dst = append(dst, id)
	}
	return dst
}

// None caches nothing: it declines every Admit, so every request it fronts
// reads the backend — the NoCache configuration of Fig. 2.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Touch implements Policy.
func (None) Touch(dataset.SampleID) bool { return false }

// Contains implements Policy.
func (None) Contains(dataset.SampleID) bool { return false }

// Admit implements Policy.
func (None) Admit(dataset.SampleID, int) bool { return false }

// Remove implements Policy.
func (None) Remove(dataset.SampleID) bool { return false }

// Len implements Policy.
func (None) Len() int { return 0 }

// UsedBytes implements Policy.
func (None) UsedBytes() int64 { return 0 }

// CapacityBytes implements Policy.
func (None) CapacityBytes() int64 { return 0 }

// Evictions implements Policy.
func (None) Evictions() int64 { return 0 }

// Residents implements Policy.
func (None) Residents(dst []dataset.SampleID) []dataset.SampleID { return dst }
