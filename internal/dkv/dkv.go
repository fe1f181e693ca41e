// Package dkv implements the distributed key-value directory of the paper's
// §III-E: a store shared by all training nodes that records, for every
// cached data item, which node holds it. Cached items are not duplicated
// across nodes, so ownership is exclusive: the first node to claim an item
// owns it until it releases the claim (e.g. on eviction).
package dkv

import (
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/obs"
)

// NodeID identifies a cache node in a distributed deployment.
type NodeID int

// Directory maps sample IDs to owning nodes and tracks node liveness
// through TTL leases (see membership.go). It is safe for concurrent use: in
// a real deployment this is a shared service (the paper suggests a
// distributed KV store); here it is an in-process equivalent with the same
// first-claim-wins semantics.
type Directory struct {
	mu     sync.Mutex
	owner  map[dataset.SampleID]NodeID
	claims int64
	denied int64

	// Membership state (see membership.go), on a clock that reads time
	// since construction.
	nodes         map[NodeID]*lease
	start         time.Time
	suspectWindow time.Duration
	ms            metrics.MembershipStats

	// journal, when set, receives membership-flip events (see SetJournal).
	journal *obs.Journal
}

// SetJournal installs a control-plane event journal: every observed
// Live/Suspect/Dead transition and revival is appended as an
// obs.EventMembership event. nil = off (the default).
func (d *Directory) SetJournal(j *obs.Journal) {
	d.mu.Lock()
	d.journal = j
	d.mu.Unlock()
}

// NewDirectory returns an empty directory with default membership timing.
func NewDirectory() *Directory {
	return &Directory{
		owner:         make(map[dataset.SampleID]NodeID),
		nodes:         make(map[NodeID]*lease),
		start:         time.Now(),
		suspectWindow: DefaultSuspectWindow,
	}
}

// Lookup reports which node owns id, if any. It is liveness-aware: an entry
// owned by a Dead node is never routed to — the entry is purged on sight
// (counted in MembershipStats.Purged) and the lookup reports "unowned", so
// the caller goes to the backend and may claim the sample fresh.
func (d *Directory) Lookup(id dataset.SampleID) (NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.owner[id]
	if !ok {
		return 0, false
	}
	now := d.now()
	d.syncStates(now)
	if d.stateOf(n, now) == NodeDead {
		delete(d.owner, id)
		d.ms.Purged++
		return 0, false
	}
	return n, true
}

// Owner is one LookupBatch result: the owning node, when Found.
type Owner struct {
	Node  NodeID
	Found bool
}

// LookupBatch resolves the owners of many ids under one lock acquisition,
// aligned with ids (out[i] answers ids[i]). It is liveness-aware exactly
// like Lookup: entries owned by Dead nodes are purged on sight and
// reported unowned. One batched call is semantically identical to len(ids)
// serial Lookups at the same instant — the batch exists so the miss path
// and the anti-entropy scrubber pay one directory round trip per
// mini-batch instead of one per sample.
func (d *Directory) LookupBatch(ids []dataset.SampleID) []Owner {
	out := make([]Owner, len(ids))
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	d.syncStates(now)
	for i, id := range ids {
		n, ok := d.owner[id]
		if !ok {
			continue
		}
		if d.stateOf(n, now) == NodeDead {
			delete(d.owner, id)
			d.ms.Purged++
			continue
		}
		out[i] = Owner{Node: n, Found: true}
	}
	return out
}

// Claim registers node as the owner of id. It reports whether the claim
// succeeded; a claim on an item owned by another Live (or Suspect) node
// fails (no duplication), re-claiming one's own item succeeds idempotently,
// and an item owned by a Dead node is reclaimable: the first claimer wins
// the transfer (counted in MembershipStats.Reclaims).
func (d *Directory) Claim(id dataset.SampleID, node NodeID) bool {
	return d.write(ownOp{ownClaim, id, node})
}

// Release removes node's ownership of id. Releasing an item the node does
// not own is a no-op returning false, so eviction races are harmless.
func (d *Directory) Release(id dataset.SampleID, node NodeID) bool {
	return d.write(ownOp{ownRelease, id, node})
}

func (d *Directory) write(o ownOp) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(o)
}

// applyOwnership applies ops in order under one lock hold, handing verdict
// what the serial Claim or Release of each op would have returned.
func (d *Directory) applyOwnership(ops []ownOp, verdict func(bool)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, o := range ops {
		verdict(d.writeLocked(o))
	}
}

func (d *Directory) writeLocked(o ownOp) bool {
	cur, owned := d.owner[o.id]
	switch {
	case o.kind == ownRelease:
		if owned && cur == o.node {
			delete(d.owner, o.id)
			return true
		}
		return false
	case owned && cur == o.node:
		return true
	case owned:
		now := d.now()
		d.syncStates(now)
		if d.stateOf(cur, now) != NodeDead {
			d.denied++
			return false
		}
		d.ms.Reclaims++
	}
	d.owner[o.id] = o.node
	d.claims++
	return true
}

// Len reports the number of owned items.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.owner)
}

// Stats reports cumulative successful claims and denied (conflicting)
// claims.
func (d *Directory) Stats() (claims, denied int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.claims, d.denied
}

// Service is the fallible directory contract shared by the in-process
// Directory (via Local), the network DirClient, and fault-injecting
// wrappers (faults.Dir). Cache nodes program against this interface so a
// deployment can swap the directory transport — and tests can make it
// unreliable — without touching cache code. It spans both the data path
// (Lookup/Claim/Release/Len) and the node-lifecycle path
// (Register/Heartbeat/ListNodes/OwnedBy/PurgeDead).
type Service interface {
	Lookup(id dataset.SampleID) (NodeID, bool, error)
	// LookupBatch resolves many ids in one directory operation (one wire
	// round trip for DirClient), aligned with ids. Liveness-aware like
	// Lookup.
	LookupBatch(ids []dataset.SampleID) ([]Owner, error)
	Claim(id dataset.SampleID, node NodeID) (bool, error)
	Release(id dataset.SampleID, node NodeID) (bool, error)
	Len() (int, error)

	// Register grants node a lease (ttl <= 0 selects DefaultLeaseTTL).
	Register(node NodeID, ttl time.Duration) (NodeInfo, error)
	// Heartbeat renews node's lease; renewed == false means the lease
	// already lapsed and the node must Register again and reconcile.
	Heartbeat(node NodeID) (renewed bool, err error)
	// ListNodes reports every registered node's membership state.
	ListNodes() ([]NodeInfo, error)
	// OwnedBy reports up to max of node's directory entries (sorted).
	OwnedBy(node NodeID, max int) ([]dataset.SampleID, error)
	// PurgeDead garbage-collects up to max Dead-owned entries.
	PurgeDead(max int) (int, error)
}

// CtxService is the optional half of a directory service: the batched lookup
// carrying a request's trace context (addressed to the directory: the caller
// passes its own context's Next()) and deadline to the directory hop. Zero
// values mean the plain lookup. The network clients (DirClient, ShardedDir)
// implement it; an in-process directory has no hop to carry anything to.
type CtxService interface {
	LookupBatchCtx(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]Owner, error)
}

// BatchService is the optional batched half of the ownership writes: many
// claims (release false) or releases of ids by node as one directory
// operation, one verdict per id, or on error the verdicts of a prefix of ids.
// DirClient and ShardedDir implement it. ClaimAll and ReleaseAll give any
// other directory one call per id, so an in-process or fault-injecting one
// sees the calls it always saw.
type BatchService interface {
	WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error)
}

// ClaimAll claims ids for node. Like a lifecycle step it stops at the first
// directory error: the verdicts then answer the ids before it.
func ClaimAll(svc Service, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	return writeAll(svc, false, ids, node, svc.Claim)
}

// ReleaseAll releases ids for node, stopping at the first error like ClaimAll.
func ReleaseAll(svc Service, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	return writeAll(svc, true, ids, node, svc.Release)
}

func writeAll(svc Service, release bool, ids []dataset.SampleID, node NodeID, one func(dataset.SampleID, NodeID) (bool, error)) ([]bool, error) {
	if b, ok := svc.(BatchService); ok {
		return b.WriteBatch(release, ids, node)
	}
	out := make([]bool, 0, len(ids))
	for _, id := range ids {
		ok, err := one(id, node)
		if err != nil {
			return out, err
		}
		out = append(out, ok)
	}
	return out, nil
}

// Local adapts an in-process Directory to the fallible Service contract
// (its operations never fail).
type Local struct{ Dir *Directory }

// Lookup reports which node owns id, if any.
func (l Local) Lookup(id dataset.SampleID) (NodeID, bool, error) {
	n, ok := l.Dir.Lookup(id)
	return n, ok, nil
}

// LookupBatch resolves many ids under one directory lock acquisition.
func (l Local) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	return l.Dir.LookupBatch(ids), nil
}

// Claim registers node as the owner of id (first claim wins).
func (l Local) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	return l.Dir.Claim(id, node), nil
}

// Release removes node's ownership of id.
func (l Local) Release(id dataset.SampleID, node NodeID) (bool, error) {
	return l.Dir.Release(id, node), nil
}

// Len reports the number of owned items.
func (l Local) Len() (int, error) { return l.Dir.Len(), nil }

// Register grants node a lease.
func (l Local) Register(node NodeID, ttl time.Duration) (NodeInfo, error) {
	return l.Dir.Register(node, ttl), nil
}

// Heartbeat renews node's lease.
func (l Local) Heartbeat(node NodeID) (bool, error) {
	return l.Dir.HeartbeatNode(node), nil
}

// ListNodes reports every registered node's membership state.
func (l Local) ListNodes() ([]NodeInfo, error) { return l.Dir.ListNodes(), nil }

// OwnedBy reports up to max of node's directory entries.
func (l Local) OwnedBy(node NodeID, max int) ([]dataset.SampleID, error) {
	return l.Dir.OwnedBy(node, max), nil
}

// PurgeDead garbage-collects up to max Dead-owned entries.
func (l Local) PurgeDead(max int) (int, error) { return l.Dir.PurgeDead(max), nil }
