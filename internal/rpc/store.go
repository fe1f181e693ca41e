package rpc

import (
	"sync"
	"sync/atomic"

	"icache/internal/dataset"
)

// The payload store holds the bytes of cache-resident samples: 64
// RWMutex-striped maps from sample id to a GC-owned slice. It has one
// admission verb and one read verb, and the garbage collector is its
// refcount.
//
// Ownership contract:
//
//   - put takes ownership of the caller's slice without copying it. The
//     caller must never write to it again, but may keep reading it and may
//     hand it on (the fetch path's buffer also goes to singleflight waiters).
//   - get returns the stored slice itself. Stored bytes are immutable and
//     nothing is ever recycled, so holding the slice is what keeps it alive:
//     a delete or overwrite that lands while a reader is mid-writev only
//     drops the map's reference, and the reader's bytes stay valid and
//     unchanged until it lets go.
//   - Stored slices are capacity-clipped, so an append by any holder
//     reallocates instead of writing into memory the store still shares.
//
// Lock ordering: shard locks are LEAF locks. Server.policyMu may be held
// while calling any method here (the eviction observer deletes under it, and
// admit inserts under it), never the reverse; no method holds two shard
// locks at once.
const payloadShards = 64

type payloadShard struct {
	mu sync.RWMutex
	m  map[dataset.SampleID][]byte
}

type payloadStore struct {
	shards [payloadShards]payloadShard

	// liveBytes is the gauge of stored payload bytes; it moves under the
	// shard lock, so a scrape never reads it negative.
	liveBytes atomic.Int64
	// refReads counts payload reads served by reference. The serving path adds
	// to it once per request, not per sample: it is one process-wide cache line.
	refReads atomic.Int64
}

func newPayloadStore() *payloadStore {
	p := &payloadStore{}
	for i := range p.shards {
		p.shards[i].m = make(map[dataset.SampleID][]byte)
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

// put stores b as id's payload, replacing any previous one. It takes
// ownership of b (see the contract above); a zero-length b is stored as
// present-and-empty.
func (p *payloadStore) put(id dataset.SampleID, b []byte) {
	sh := p.shard(id)
	sh.mu.Lock()
	p.liveBytes.Add(int64(len(b) - len(sh.m[id])))
	sh.m[id] = b[:len(b):len(b)]
	sh.mu.Unlock()
}

// get returns id's payload by reference. The slice stays valid for as long
// as the caller holds it, whatever happens to the entry meanwhile.
func (p *payloadStore) get(id dataset.SampleID) ([]byte, bool) {
	sh := p.shard(id)
	sh.mu.RLock()
	b, ok := sh.m[id]
	sh.mu.RUnlock()
	return b, ok
}

// has reports presence without touching payload bytes.
func (p *payloadStore) has(id dataset.SampleID) bool {
	_, ok := p.get(id)
	return ok
}

// delete removes id's payload (eviction, lost ownership). Readers that
// already hold the slice keep it.
func (p *payloadStore) delete(id dataset.SampleID) {
	sh := p.shard(id)
	sh.mu.Lock()
	p.liveBytes.Add(-int64(len(sh.m[id])))
	delete(sh.m, id)
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
