package icache

import (
	"icache/internal/dataset"
)

// Clairvoyant epoch planning (the NoPFS premise applied to iCache): the IIS
// sampler draws an epoch's schedule *before* the epoch begins, so the access
// sequence is known in advance. PlanSchedule ingests that sequence at the
// epoch boundary and splits it by region:
//
//   - Scheduled L-samples that are not resident are queued for priority
//     re-packing, in first-access order, so the dynamic-packaging loader's
//     next packages are composed of exactly the samples the epoch is about
//     to consume instead of random fill. The loader still pays its full
//     virtual-time storage cost, so simulation results stay honest. Which
//     L-samples are resident stays the policy's decision; on the
//     byte-serving path their bytes arrive on first request.
//   - Scheduled H-samples that are not resident are returned, in
//     first-access order, for the caller to pre-place. The simulation
//     ignores the list (an H-miss charges its backend read to the
//     foreground request that triggers it, and pre-admitting without
//     charging that time anywhere would falsify the model); the
//     byte-serving RPC layer queues it on its prefetch pool — the one
//     prefetcher it has — whose workers fetch real bytes like any other
//     read, inside the server's backend-read budget (see
//     internal/rpc/plan.go).

// PlanSchedule ingests the epoch's known access sequence. It seeds the
// loader's re-pack queue with every scheduled, non-resident L-sample and
// returns the scheduled, non-resident H-list members, both deduplicated and
// in first-access order. Callers must hold whatever lock guards the server
// (the RPC server's policy lock); the simulation owns the server outright.
func (s *Server) PlanSchedule(ids []dataset.SampleID) []dataset.SampleID {
	var needH []dataset.SampleID
	seen := make(map[dataset.SampleID]struct{}, len(ids))
	seedL := s.cfg.EnableLCache && s.cfg.Packaging != PackagingStatic
	for _, id := range ids {
		if !s.spec.Contains(id) {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if s.hlist.Contains(id) {
			if !s.Resident(id) { // an L-resident H-sample is promoted on its first hit
				needH = append(needH, id)
			}
			continue
		}
		if !seedL || s.h.contains(id) || s.l.contains(id) {
			continue
		}
		s.ld.recordMiss(id)
	}
	return needH
}

// PlanAdmitH admits a planned H-sample into the H-cache through the same
// importance-gated admission path a demand miss would use (Algorithm 1's
// offer), without counting a request. It reports whether the sample is
// policy-resident afterwards — false means the plan entry is unfulfillable
// here (not an H-list member, or the heap rejected it as less important
// than every resident) and the prefetch worker must not fetch bytes for it.
// Callers hold the policy lock.
func (s *Server) PlanAdmitH(id dataset.SampleID) bool {
	if !s.hlist.Contains(id) {
		return false
	}
	if s.h.contains(id) {
		return true
	}
	iv, _ := s.hlistValue(id)
	if s.l.contains(id) {
		s.promote(id, iv)
		return true
	}
	return s.admitH(id, iv)
}

// planSchedule is Server.PlanSchedule for a cluster: the epoch's known
// accesses that no live node caches are dealt round-robin over the live
// nodes' planners, so the cluster pre-packs the epoch's working set once
// instead of every node discovering the same misses reactively.
func (cl *Cluster) planSchedule(ids []dataset.SampleID) {
	var live []*clusterNode
	for _, n := range cl.nodes {
		if n.alive {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return
	}
	parts := make([][]dataset.SampleID, len(live))
	seen := make(map[dataset.SampleID]struct{}, len(ids))
	next := 0
scheduled:
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		for _, n := range live {
			if n.srv.Resident(id) {
				continue scheduled
			}
		}
		parts[next%len(live)] = append(parts[next%len(live)], id)
		next++
	}
	for i, n := range live {
		n.srv.PlanSchedule(parts[i])
	}
}
