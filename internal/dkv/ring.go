package dkv

import (
	"sort"

	"icache/internal/dataset"
)

// The directory is sharded by sample ID across N dkv replicas so that no
// single process carries every miss, scrub and heartbeat in the cluster —
// and so that one replica's crash takes down 1/N of the metadata, not all
// of it (Hoard runs exactly this distributed-metadata layout for DNN
// training caches).
//
// Shard placement uses rendezvous (highest-random-weight) hashing: every
// sample ID is owned by the live replica with the highest keyed hash score
// for that ID. Rendezvous hashing gives the two properties the failover
// story needs with no token tables to synchronize:
//
//   - Minimal remapping: removing one of N replicas remaps exactly the
//     ~1/N of the key space that replica owned, and nothing else (keys
//     owned by survivors keep their owner, because the survivor's score
//     did not change). Adding a replica back steals only the keys it wins.
//   - Determinism: placement is a pure function of (sample ID, live
//     replica set), so every client computes the same owner from the same
//     view with no coordination.
//
// A RingView is an epoch-numbered snapshot of the live replica set. There is
// one per client, the ShardedDir's (sharded.go): it bumps the epoch on every
// failover and revival it observes. Replicas hold no view. They serve any
// shard's operations, and placement is enforced by routing alone.

// ReplicaID identifies one directory replica in a sharded deployment. It is
// a separate space from NodeID: nodes are cache servers, replicas are
// directory shard holders.
type ReplicaID int

// RingView is an epoch-numbered snapshot of the live directory replica
// set. Replicas is sorted ascending and never aliased after construction;
// the zero value (epoch 0, no replicas) is the "nothing known" view.
type RingView struct {
	Epoch    uint64
	Replicas []ReplicaID
}

// NewRingView builds a view over the given replicas (copied, sorted,
// deduplicated).
func NewRingView(epoch uint64, replicas []ReplicaID) RingView {
	rs := append([]ReplicaID(nil), replicas...)
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return RingView{Epoch: epoch, Replicas: out}
}

// Contains reports whether r is in the view's live set.
func (v RingView) Contains(r ReplicaID) bool {
	for _, x := range v.Replicas {
		if x == r {
			return true
		}
	}
	return false
}

// Owner reports the replica that owns id's shard under this view: the
// rendezvous winner over its replicas. ok is false when the view is empty —
// the only condition under which a shard has no live holder.
func (v RingView) Owner(id dataset.SampleID) (ReplicaID, bool) {
	if len(v.Replicas) == 0 {
		return 0, false
	}
	return Rendezvous(id, v.Replicas), true
}

// Rendezvous is the placement hash of the cluster: it picks the candidate
// with the highest keyed hash score for id, ties to the one listed first, so
// a sorted list breaks them to the lowest ID. The directory's shards are
// placed over replicas with it, and an epoch plan's entries over cache nodes.
// candidates must not be empty.
func Rendezvous[T ~int](id dataset.SampleID, candidates []T) T {
	best := candidates[0]
	bestScore := rendezvousScore(id, uint64(best))
	for _, c := range candidates[1:] {
		if s := rendezvousScore(id, uint64(c)); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// rendezvousScore is the keyed hash behind Rendezvous. It must be a pure,
// platform-independent function of (id, candidate) — the whole cluster
// computes placement with it — so it is a fixed splitmix64-style finalizer
// over the two operands, not a seeded or map-order-dependent hash.
func rendezvousScore(id dataset.SampleID, c uint64) uint64 {
	x := uint64(id)*0x9E3779B97F4A7C15 ^ c*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
