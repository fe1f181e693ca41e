package rpc

import (
	"sort"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/obs"
)

// Clairvoyant prefetch plan (NoPFS applied to the byte-serving path).
//
// The IIS sampler draws an epoch's schedule before the epoch begins, so at
// every epoch boundary the future access sequence is known. A clairvoyant
// client pushes it over opEpochPlan — sending it is the switch, and the plan
// is the server's only prefetcher: an epoch crossed with a plain boundary
// prefetches nothing. The policy engine classifies the schedule
// (PlanSchedule: L-samples seed the loader, so L-residency stays the policy's
// decision and L bytes arrive with its packages; missing H-samples come back
// in first-access order) and plan turns the H side into entries of the
// prefetch pool's queue, in the boundary's handler, before the boundary is
// answered:
//
//  1. Diff against residency: locally present payloads are skipped
//     outright, then ONE batched directory sweep (dirLookupBatch, chunked)
//     drops every sample a live peer already owns — the cluster never
//     fetches a byte it already holds.
//  2. Route by future ownership: unowned samples are assigned their future
//     owner by rendezvous hash over the membership. Entries routed to a
//     peer ship in opPlanPreplace batches and join the PEER's plan (it
//     admits and fetches them itself, claiming directory ownership exactly
//     as a demand fetch would). A peer's first failed pre-place RPC sends
//     the rest of its entries to the local queue, and on the NEXT epoch's
//     residency sweep the plan re-routes around the dead node — the
//     directory shows its entries gone.
//  3. Queue the rest whole, in first-access order, in the generation the
//     boundary's sweep opened (prefetcher.sweepEpoch dropped the previous
//     plan's unstarted entries; prefetcher.addPlan supersedes nothing).
//     Planned reads are bounded the way every other read is — the pool has
//     one worker per backendReadBudget slot, and its reads take slots in
//     arrival order with the demand reads — and have no pacing of their own
//     (DESIGN.md, "Bounded drain"). In Brownout the workers take nothing and
//     the plan resumes when the gate clears. Every entry resolves through the
//     pool's pending-token ledger, so in_time+late+wasted+dropped == issued
//     stays exact at every boundary.
//
// A demand fetch that overtakes a queued plan entry promotes it: the
// foreground read becomes the one backend fetch (singleflight coalesces
// in-flight ones; prefetcher.noteDemand cancels queued-unstarted ones), so
// the backend never pays twice for one miss.

// planPreplaceChunk is how many ids one opPlanPreplace request carries.
const planPreplaceChunk = 2048

// planLookupChunk bounds one directory residency-sweep call.
const planLookupChunk = 8192

// planAdmit runs the policy's plan-admission path for one planned H-sample
// (see icache.Server.PlanAdmitH) under the policy lock.
func (s *Server) planAdmit(id dataset.SampleID) bool {
	s.policyMu.Lock()
	ok := s.cache.PlanAdmitH(id)
	s.policyMu.Unlock()
	return ok
}

// plan builds epoch's plan from PlanSchedule's missing H-side (deduplicated,
// policy-filtered, first-access order) and queues it. Called with no lock
// held: the directory sweep and the pre-place RPCs are real I/O.
func (s *Server) plan(epoch int64, need []dataset.SampleID) {
	next := PlanStats{Epoch: epoch}
	missing := need[:0:0]
	for _, id := range need {
		if s.payloads.has(id) {
			next.SkippedResident++
			continue
		}
		missing = append(missing, id)
	}
	if dist := s.dist; dist != nil && len(missing) > 0 {
		missing = s.route(dist, missing, &next)
	}
	s.prefetch.addPlan(missing, &next)
}

// route drops the samples a live peer already owns, ships the rest to their
// future owners and returns the ones this node is to fetch. One batched
// residency sweep over the directory (chunked) finds the owners; entries of
// dead nodes have been purged by the membership plane, so they show up as
// unowned here, which is exactly what re-routes a broken plan on the next
// sweep. With the directory unavailable everything is planned locally; the
// admit path's claim race still keeps the cluster duplicate-free.
func (s *Server) route(dist *distState, missing []dataset.SampleID, st *PlanStats) []dataset.SampleID {
	owners := make([]dkv.Owner, 0, len(missing))
	for off := 0; off < len(missing); off += planLookupChunk {
		chunk := s.dirLookupBatch(dist, missing[off:min(off+planLookupChunk, len(missing))], obs.TraceCtx{}, time.Time{})
		if chunk == nil {
			return missing
		}
		owners = append(owners, chunk...)
	}
	members := dist.planMembers()
	var local []dataset.SampleID
	routed := make(map[dkv.NodeID][]dataset.SampleID)
	for i, id := range missing {
		if owners[i].Found && owners[i].Node != dist.nodeID {
			st.SkippedCluster++
			continue
		}
		owner := dkv.Rendezvous(id, members)
		if owner == dist.nodeID {
			local = append(local, id)
			continue
		}
		routed[owner] = append(routed[owner], id)
	}
	return s.preplace(dist, routed, local, st)
}

// preplace ships each future owner its plan entries in opPlanPreplace
// chunks, in a deterministic node order. Entries a peer rejects (already
// resident there) are done; a shipped chunk is remembered as the peer's. The
// first chunk that fails to ship re-routes the rest of that peer's entries to
// the local queue — this node fetches them itself rather than dropping plan
// coverage, and a dead or hung peer costs the boundary's reply one dial or RPC
// timeout, not one per chunk.
func (s *Server) preplace(dist *distState, routed map[dkv.NodeID][]dataset.SampleID, local []dataset.SampleID, st *PlanStats) []dataset.SampleID {
	nodes := make([]dkv.NodeID, 0, len(routed))
	for n := range routed {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		ids := routed[n]
		for off := 0; off < len(ids); off += planPreplaceChunk {
			c, err := dist.peer(n)
			if err == nil {
				chunk, gen := ids[off:min(off+planPreplaceChunk, len(ids))], dist.owners.generation()
				var accepted int
				accepted, err = c.PlanPreplace(chunk)
				if err == nil {
					st.PreplaceSent += int64(accepted)
					for _, id := range chunk { // n fetches them, or holds them already
						dist.owners.put(gen, id, dkv.Owner{Node: n, Found: true})
					}
					continue
				}
				if isConnFailure(err) {
					dist.dropPeer(n, c)
				}
			}
			// Unreachable owner: fall back to fetching locally. The next
			// epoch's residency sweep sees whatever the cluster actually
			// holds and re-routes accordingly.
			st.Reroutes += int64(len(ids) - off)
			local = append(local, ids[off:]...)
			break
		}
	}
	return local
}

// acceptRemote folds pre-placed entries from a peer's plan into this node's
// current plan: the sender decided (by rendezvous over the membership) that
// WE are these samples' future owner. Returns how many entries were queued.
func (s *Server) acceptRemote(ids []dataset.SampleID) int {
	spec := s.source.Spec()
	accepted := ids[:0:0]
	for _, id := range ids {
		if spec.Contains(id) && !s.payloads.has(id) {
			accepted = append(accepted, id)
		}
	}
	return s.prefetch.addPlan(accepted, nil)
}

// planMembers lists this node and the others in the static address book,
// sorted: the membership a plan entry's future owner is hashed over
// (dkv.Rendezvous), so every node computes the same answer with no
// coordination.
func (d *distState) planMembers() []dkv.NodeID {
	out := make([]dkv.NodeID, 0, len(d.peerAddrs)+1)
	out = append(out, d.nodeID)
	for n := range d.peerAddrs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PlanStats is the plan's introspection snapshot.
type PlanStats struct {
	Epoch           int64 // epoch whose generation the last boundary opened
	Planned         int64 // entries queued for the current epoch's plan
	Completed       int64 // current-plan entries a worker has finished
	Remaining       int64 // Planned - Completed
	CompletedTotal  int64
	SkippedResident int64 // plan entries whose bytes were already local
	SkippedCluster  int64 // plan entries a live peer already owned
	PreplaceSent    int64 // entries accepted by future owners
	PreplaceRecv    int64 // entries accepted FROM peers into our plan
	Reroutes        int64 // entries re-routed locally after a failed pre-place
}

// PlanStats reports the plan's progress and counters.
func (s *Server) PlanStats() PlanStats {
	p := s.prefetch
	p.mu.Lock()
	st := p.plan
	p.mu.Unlock()
	st.Remaining = st.Planned - st.Completed
	return st
}
