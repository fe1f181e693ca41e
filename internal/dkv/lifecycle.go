package dkv

import (
	"fmt"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
)

// The node side of the membership protocol: the steps a cache node runs
// against the directory to stay a member (membership.go is the directory
// side). There is one copy. rpc.Server fires the steps from wall-clock
// tickers, icache.Cluster from its virtual clock; a step knows neither. It
// takes no lock and reads no clock: the caller serialises a node's steps
// (one loop goroutine, or the single-threaded simulation), guards its own
// state inside the Residents view, and adds the returned counter delta to
// its totals under whatever lock those need. A step stops at the first
// directory error and returns it beside what it got done; the next firing
// starts over.

// DropReason classifies a directed removal from a node's cache: a drop the
// directory forced, not one the cache policy chose (capacity evictions are
// counted by the regions' eviction loops).
type DropReason int

const (
	// DropDeadOwner: the directory credits the sample to another node
	// (lost claim race, peer-owned copy discovered on the serve path).
	DropDeadOwner DropReason = iota
	// DropScrub: the anti-entropy sweep found the copy unregistered or
	// peer-owned and repaired the divergence.
	DropScrub
	// DropCheckpointDenied: a checkpoint-restored resident whose ownership
	// replay was denied after rejoin.
	DropCheckpointDenied
	// DropDirUnavailable: the node's claim got no answer (directory down,
	// breaker open), so it keeps no copy the directory does not credit it.
	DropDirUnavailable
)

// Residents is a node's cache as the steps see it. *icache.Server has these
// methods; a concurrent node wraps them in its policy lock.
type Residents interface {
	// Residents appends every cached sample ID to dst in ascending order:
	// the scrub watermark indexes into it across sweeps.
	Residents(dst []dataset.SampleID) []dataset.SampleID
	Resident(id dataset.SampleID) bool
	// DropFor removes the node's copy of id WITHOUT releasing ownership —
	// the directory credits the sample to someone else — and whatever the
	// node keeps beside the cache entry (payload bytes).
	DropFor(id dataset.SampleID, reason DropReason) bool
}

// Member is one cache node's identity in the directory.
type Member struct {
	Dir Service
	ID  NodeID
	// TTL is the lease duration asked for (<= 0: the directory's default).
	TTL   time.Duration
	Cache Residents
}

// Heartbeat renews the node's lease. A rejected renewal means the lease
// lapsed — the node was partitioned, paused or restarted past its TTL, or
// the directory replica lost its table — and ownership may have moved while
// the node was away, so it rejoins before trusting its cache again.
func (m Member) Heartbeat() (d metrics.MembershipStats, err error) {
	renewed, err := m.Dir.Heartbeat(m.ID)
	if err != nil {
		return d, err
	}
	if renewed {
		d.Heartbeats++
		return d, nil
	}
	d.HeartbeatRejects++
	rd, err := m.Rejoin()
	d.Add(rd)
	return d, err
}

// Rejoin grants the node a fresh lease — before any claim: a claim from an
// expired identity would be reclaimable at once — and reconciles its
// ownership. It is the boot path (a restarted node re-claims what its
// checkpoint restored) and the split-brain repair path alike.
func (m Member) Rejoin() (d metrics.MembershipStats, err error) {
	if _, err := m.Dir.Register(m.ID, m.TTL); err != nil {
		return d, err
	}
	d.Registers++
	rd, err := m.Reconcile()
	d.Add(rd)
	return d, err
}

// Reconcile re-claims every sample the node caches. Claims are idempotent
// for the current owner, so entries nobody touched re-affirm; an entry
// another node won in the meantime comes back denied and the local copy is
// dropped, preserving the no-duplication invariant. The replay is one
// ClaimAll: a few frames to a DirClient, not one round trip per resident.
func (m Member) Reconcile() (d metrics.MembershipStats, err error) {
	ids := m.Cache.Residents(nil)
	claimed, err := ClaimAll(m.Dir, ids, m.ID)
	for i, ok := range claimed {
		if ok {
			d.ReplayedClaims++
			continue
		}
		d.ReplayDenied++
		m.Cache.DropFor(ids[i], DropCheckpointDenied)
	}
	return d, err
}

// Scrub runs one bounded anti-entropy sweep, reconciling the directory
// against the node's cache in both directions and then purging a batch of
// Dead-owned entries as a backstop for what no survivor reclaims on the
// demand path. batch bounds the directory work per direction. mark is the
// watermark into the sorted resident set that the previous sweep returned
// (0 at boot): bounded sweeps eventually cover everything.
func (m Member) Scrub(mark, batch int) (next int, d metrics.MembershipStats, err error) {
	// Direction 1: entries registered to this node that it no longer caches
	// (a release that never reached the directory). Left alone they route
	// peers to a copy that does not exist.
	owned, err := m.Dir.OwnedBy(m.ID, batch)
	if err != nil {
		return mark, d, err
	}
	var gone []dataset.SampleID
	for _, id := range owned {
		if !m.Cache.Resident(id) {
			gone = append(gone, id)
		}
	}
	released, err := ReleaseAll(m.Dir, gone, m.ID)
	d.ScrubReleased += int64(len(released))
	if err != nil {
		return mark, d, err
	}

	// Direction 2: cached samples the directory does not credit to this
	// node. One LookupBatch answers ownership for the whole window, and one
	// ClaimAll re-claims the unregistered ones.
	ids := m.Cache.Residents(nil)
	if n := len(ids); n > 0 {
		if mark >= n {
			mark = 0
		}
		window := make([]dataset.SampleID, min(batch, n))
		for i := range window {
			window[i] = ids[(mark+i)%n]
		}
		owners, err := m.Dir.LookupBatch(window)
		if err == nil && len(owners) != len(window) {
			err = fmt.Errorf("dkv: LookupBatch answered %d of %d ids", len(owners), len(window))
		}
		if err != nil {
			return mark, d, err
		}
		// Unregistered residents are re-claimed so peers can find the copy;
		// one a peer owns (or wins the race between lookup and claim) is the
		// duplicate, and goes.
		var unowned, dup []dataset.SampleID
		for i, id := range window {
			if o := owners[i]; !o.Found {
				unowned = append(unowned, id)
			} else if o.Node != m.ID {
				dup = append(dup, id)
			}
		}
		claimed, err := ClaimAll(m.Dir, unowned, m.ID)
		for i, ok := range claimed {
			if ok {
				d.ScrubReclaimed++
			} else {
				dup = append(dup, unowned[i])
			}
		}
		for _, id := range dup {
			m.Cache.DropFor(id, DropScrub)
			d.ScrubDropped++
		}
		if err != nil {
			return mark, d, err
		}
		mark = (mark + len(window)) % n
	}

	if _, err := m.Dir.PurgeDead(batch); err != nil {
		return mark, d, err
	}
	d.ScrubSweeps++
	return mark, d, nil
}
