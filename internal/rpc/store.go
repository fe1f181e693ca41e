package rpc

import (
	"sync"
	"sync/atomic"

	"icache/internal/dataset"
)

// The payload store is a sharded, reference-counted slab arena. Payloads
// of cache-resident samples are packed into fixed-size slabs (one of three
// size classes) instead of living as individual heap allocations; the
// serving path pins a slab with an atomic refcount for the duration of a
// vectored response write, so eviction can run concurrently with reads and
// a slab's memory is recycled only after the last reader drains. The result
// is a hit path with no payload copy and no per-request allocation, and an
// eviction path that never frees memory out from under an in-flight writev.
//
// Refcount protocol (the owner-reference pattern):
//
//   - A slab is born with refs == 1: the store's own reference, held for as
//     long as the slab can still receive entries or holds live ones.
//   - A reader pins (+1) under the shard read lock before using the slab's
//     bytes and unpins (−1) when the response write completes. Holding the
//     shard read lock while an entry is still in the map guarantees the
//     owner reference is held, so a pin can never resurrect a dead slab.
//   - When a sealed slab's live-entry count drops to zero (eviction,
//     overwrite, lost ownership), the store drops its owner reference.
//   - Whoever moves refs to 0 recycles the slab. Exactly one goroutine
//     observes the transition, so recycling is single-shot by construction.
//
// Two admission flavors exist because payload lifetimes differ:
//
//   - putCopy copies the payload into an arena slab. Only bytes whose
//     lifetime the store fully controls may enter the arena (checkpoint
//     rehydration, tests): arena slabs are recycled, and any outstanding
//     alias would read recycled memory.
//   - adopt takes ownership of a caller-allocated slice with zero copies,
//     wrapping it as a dedicated slab that is never recycled — when its
//     refs drain the bytes simply become garbage for the GC. The fetch and
//     prefetch paths use adopt, because their payloads also escape to
//     singleflight waiters as plain slices with unbounded lifetime.
//
// Lock ordering: shard locks remain LEAF locks with respect to
// Server.policyMu (the policy lock may be held while calling any method
// here, never the reverse). freeMu (the slab freelist) is a leaf of
// everything including shard locks: unref may run with or without a shard
// lock held, and freeMu protects only the freelist push/pop.
const payloadShards = 64

// Slab size classes. A payload is placed in the smallest class whose
// per-payload cap admits it; anything larger than the top cap is adopted as
// a dedicated slab (classDedicated). Caps are well below slab sizes so a
// slab amortizes across many payloads.
const (
	numClasses     = 3
	classDedicated = -1
)

var (
	classSlabBytes  = [numClasses]int{64 << 10, 256 << 10, 1 << 20}
	classMaxPayload = [numClasses]int{2 << 10, 16 << 10, 128 << 10}
)

// maxFreeSlabs bounds the per-class freelist; beyond it, recycled slabs are
// released to the GC instead of retained.
const maxFreeSlabs = 8

// slab is one arena block (or one adopted payload). refs is touched only
// atomically; used, live and sealed are guarded by the owning shard's
// mutex. Adopted slabs (class == classDedicated) are never recycled.
type slab struct {
	buf    []byte
	refs   int32
	used   int
	live   int
	sealed bool
	class  int
}

// pin takes a reader reference. Callers must guarantee the slab is still
// owner-referenced (entry present under the shard lock).
func (sl *slab) pin() { atomic.AddInt32(&sl.refs, 1) }

// payloadEntry locates one payload inside its slab.
type payloadEntry struct {
	sl     *slab
	off, n int32
}

type payloadShard struct {
	mu   sync.RWMutex
	m    map[dataset.SampleID]payloadEntry
	open [numClasses]*slab // partially filled slabs accepting new entries
}

type payloadStore struct {
	shards [payloadShards]payloadShard

	freeMu sync.Mutex
	free   [numClasses][][]byte

	// Lifecycle counters and byte gauges (atomics).
	slabAllocs   int64 // arena slabs carved from the heap
	slabRecycles int64 // arena slabs returned to the freelist or GC
	slabAdopts   int64 // dedicated slabs adopted without a copy
	slabFrees    int64 // dedicated slabs released after their refs drained
	slabBytes    int64 // gauge: bytes held in arena slabs (incl. freelist)
	liveBytes    int64 // gauge: bytes of live payload entries
	pins         int64 // counter: reader pins taken
}

func newPayloadStore() *payloadStore {
	p := &payloadStore{}
	for i := range p.shards {
		p.shards[i].m = make(map[dataset.SampleID]payloadEntry)
	}
	return p
}

// shard maps a sample ID onto its stripe. Sample IDs are dense small
// integers, and adjacent IDs are frequently requested together (batches),
// so a Fibonacci hash spreads consecutive IDs across stripes instead of
// clustering them.
func (p *payloadStore) shard(id dataset.SampleID) *payloadShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &p.shards[h>>(64-6)] // top 6 bits: payloadShards == 64
}

// classFor returns the arena class for a payload size, or classDedicated.
func classFor(n int) int {
	for c := 0; c < numClasses; c++ {
		if n <= classMaxPayload[c] {
			return c
		}
	}
	return classDedicated
}

// newSlab produces an empty arena slab of class c, reusing a freelisted
// buffer when one is available.
func (p *payloadStore) newSlab(c int) *slab {
	var buf []byte
	p.freeMu.Lock()
	if n := len(p.free[c]); n > 0 {
		buf = p.free[c][n-1]
		p.free[c][n-1] = nil
		p.free[c] = p.free[c][:n-1]
	}
	p.freeMu.Unlock()
	if buf == nil {
		buf = make([]byte, classSlabBytes[c])
		atomic.AddInt64(&p.slabAllocs, 1)
		atomic.AddInt64(&p.slabBytes, int64(len(buf)))
	}
	return &slab{buf: buf, refs: 1, class: c}
}

// unref drops one reference; the goroutine that moves refs to 0 recycles
// the slab. Safe to call with or without shard locks held (freeMu is a leaf
// of everything).
func (p *payloadStore) unref(sl *slab) {
	if atomic.AddInt32(&sl.refs, -1) != 0 {
		return
	}
	if sl.class == classDedicated {
		atomic.AddInt64(&p.slabFrees, 1)
		return // GC reclaims the adopted bytes
	}
	atomic.AddInt64(&p.slabRecycles, 1)
	buf := sl.buf
	sl.buf = nil
	p.freeMu.Lock()
	if len(p.free[sl.class]) < maxFreeSlabs {
		p.free[sl.class] = append(p.free[sl.class], buf)
		p.freeMu.Unlock()
		return
	}
	p.freeMu.Unlock()
	atomic.AddInt64(&p.slabBytes, -int64(len(buf)))
}

// dropEntryLocked removes an entry's contribution to its slab and drops the
// owner reference once a sealed slab has no live entries. Caller holds the
// shard write lock.
func (p *payloadStore) dropEntryLocked(e payloadEntry) {
	atomic.AddInt64(&p.liveBytes, -int64(e.n))
	if e.sl == nil {
		return // zero-length payload, no slab
	}
	e.sl.live--
	if e.sl.sealed && e.sl.live == 0 {
		p.unref(e.sl)
	}
}

// putCopy admits a payload by copying it into an arena slab (or adopting it
// when it exceeds the top class cap). ONLY for payloads whose bytes do not
// escape the store: arena memory is recycled, so outside aliases are
// forbidden. Fetch-path payloads must use adopt.
func (p *payloadStore) putCopy(id dataset.SampleID, b []byte) {
	c := classFor(len(b))
	if c == classDedicated {
		p.adopt(id, append([]byte(nil), b...))
		return
	}
	sh := p.shard(id)
	sh.mu.Lock()
	if old, ok := sh.m[id]; ok {
		p.dropEntryLocked(old)
	}
	if len(b) == 0 {
		sh.m[id] = payloadEntry{}
		sh.mu.Unlock()
		return
	}
	sl := sh.open[c]
	if sl == nil || len(sl.buf)-sl.used < len(b) {
		if sl != nil {
			// Seal the full slab; it dies when its last entry goes.
			sl.sealed = true
			if sl.live == 0 {
				p.unref(sl)
			}
		}
		sl = p.newSlab(c)
		sh.open[c] = sl
	}
	off := sl.used
	copy(sl.buf[off:], b)
	sl.used += len(b)
	sl.live++
	sh.m[id] = payloadEntry{sl: sl, off: int32(off), n: int32(len(b))}
	atomic.AddInt64(&p.liveBytes, int64(len(b)))
	sh.mu.Unlock()
}

// adopt admits a caller-allocated payload with zero copies: the slice
// becomes a dedicated, never-recycled slab. The caller must not mutate b
// afterwards; outside aliases (singleflight waiters, prefetch buffers) stay
// valid forever because dedicated slabs are handed to the GC, not reused.
func (p *payloadStore) adopt(id dataset.SampleID, b []byte) {
	sh := p.shard(id)
	sh.mu.Lock()
	if old, ok := sh.m[id]; ok {
		p.dropEntryLocked(old)
	}
	if len(b) == 0 {
		sh.m[id] = payloadEntry{}
		sh.mu.Unlock()
		return
	}
	sl := &slab{buf: b, refs: 1, class: classDedicated, used: len(b), live: 1, sealed: true}
	sh.m[id] = payloadEntry{sl: sl, off: 0, n: int32(len(b))}
	atomic.AddInt64(&p.slabAdopts, 1)
	atomic.AddInt64(&p.liveBytes, int64(len(b)))
	sh.mu.Unlock()
}

// getPinned returns the payload bytes for id with the backing slab pinned.
// The caller MUST call unref(sl) after the bytes are no longer referenced
// (for the serving path: after the vectored write returns). sl is nil for
// zero-length payloads — no pin is held and no release is needed.
func (p *payloadStore) getPinned(id dataset.SampleID) (b []byte, sl *slab, ok bool) {
	sh := p.shard(id)
	sh.mu.RLock()
	e, ok := sh.m[id]
	if !ok {
		sh.mu.RUnlock()
		return nil, nil, false
	}
	if e.sl == nil {
		sh.mu.RUnlock()
		return nil, nil, true
	}
	e.sl.pin()
	sh.mu.RUnlock()
	atomic.AddInt64(&p.pins, 1)
	return e.sl.buf[e.off : int64(e.off)+int64(e.n) : int64(e.off)+int64(e.n)], e.sl, true
}

// getShared returns payload bytes that are safe to hold indefinitely
// without a pin: adopted slabs are aliased directly (they are never
// recycled), arena entries are copied out. Used where the bytes escape to
// consumers with unbounded lifetime (singleflight waiters, the per-sample
// opPeerGet answer, checkpointing).
func (p *payloadStore) getShared(id dataset.SampleID) ([]byte, bool) {
	sh := p.shard(id)
	sh.mu.RLock()
	e, ok := sh.m[id]
	if !ok {
		sh.mu.RUnlock()
		return nil, false
	}
	if e.sl == nil {
		sh.mu.RUnlock()
		return nil, true
	}
	if e.sl.class == classDedicated {
		b := e.sl.buf[e.off : int64(e.off)+int64(e.n) : int64(e.off)+int64(e.n)]
		sh.mu.RUnlock()
		return b, true
	}
	out := make([]byte, e.n)
	copy(out, e.sl.buf[e.off:int64(e.off)+int64(e.n)])
	sh.mu.RUnlock()
	return out, true
}

// get is getShared under its historical name (tests, non-hot-path callers).
func (p *payloadStore) get(id dataset.SampleID) ([]byte, bool) {
	return p.getShared(id)
}

// has reports presence without touching payload bytes or refcounts.
func (p *payloadStore) has(id dataset.SampleID) bool {
	sh := p.shard(id)
	sh.mu.RLock()
	_, ok := sh.m[id]
	sh.mu.RUnlock()
	return ok
}

// put admits a payload on the fetch path: zero-copy adoption. Retained
// under the old name because every existing call site admits bytes that
// also escape via singleflight.
func (p *payloadStore) put(id dataset.SampleID, b []byte) {
	p.adopt(id, b)
}

// delete removes id's payload (eviction, lost ownership). The backing slab
// is recycled once sealed, empty, and drained of readers.
func (p *payloadStore) delete(id dataset.SampleID) {
	sh := p.shard(id)
	sh.mu.Lock()
	if e, ok := sh.m[id]; ok {
		delete(sh.m, id)
		p.dropEntryLocked(e)
	}
	sh.mu.Unlock()
}

// len reports the total number of stored payloads.
func (p *payloadStore) len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// slabStatsSnapshot aggregates the arena's lifecycle counters and byte
// gauges for the metrics surface.
type slabStatsSnapshot struct {
	allocs, recycled, adopted, freed int64
	slabBytes, liveBytes, pins       int64
}

func (p *payloadStore) slabStats() slabStatsSnapshot {
	return slabStatsSnapshot{
		allocs:    atomic.LoadInt64(&p.slabAllocs),
		recycled:  atomic.LoadInt64(&p.slabRecycles),
		adopted:   atomic.LoadInt64(&p.slabAdopts),
		freed:     atomic.LoadInt64(&p.slabFrees),
		slabBytes: atomic.LoadInt64(&p.slabBytes),
		liveBytes: atomic.LoadInt64(&p.liveBytes),
		pins:      atomic.LoadInt64(&p.pins),
	}
}

// ids snapshots the stored sample IDs (tests and diagnostics; not a
// consistent point-in-time snapshot across shards).
func (p *payloadStore) ids() []dataset.SampleID {
	var out []dataset.SampleID
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}
