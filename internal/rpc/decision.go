package rpc

import (
	"sync/atomic"

	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/overload"
)

// Decision-level introspection for the serving layer: admission provenance
// counters, the prefetch-outcome ledger (kept by the prefetcher), the
// control-plane event journal, and the /debug/timeline collector. The
// policy half of the ledger (eviction reasons, substitution quality, epoch
// residency) lives in internal/icache; DecisionStats overlays the two.

// admitProv classifies what motivated a payload-store insert.
type admitProv uint8

const (
	provFetch admitProv = iota
	provPrefetch
	provRehydrate
)

// rpcDecisions holds the serving-layer decision counters (atomics).
type rpcDecisions struct {
	admitFetch     int64
	admitPrefetch  int64
	admitRehydrate int64
}

func (d *rpcDecisions) countAdmit(prov admitProv) {
	switch prov {
	case provPrefetch:
		atomic.AddInt64(&d.admitPrefetch, 1)
	case provRehydrate:
		atomic.AddInt64(&d.admitRehydrate, 1)
	default:
		atomic.AddInt64(&d.admitFetch, 1)
	}
}

// SetJournal installs the control-plane event journal (nil = off). Must
// be called before Serve; either order with EnableDistributed works (the
// journal is propagated into the distributed state both ways).
func (s *Server) SetJournal(j *obs.Journal) {
	s.journal = j
	if s.dist != nil {
		s.dist.journal = j
	}
}

// Journal exposes the installed journal (nil when off).
func (s *Server) Journal() *obs.Journal { return s.journal }

// Exemplars exposes the latency-bucket trace exemplars (nil until
// EnableObs arms the histograms).
func (s *Server) Exemplars() *obs.Exemplars { return s.obs.exemplars }

// journalNode reports this node's identity for journal events (0 on a
// lone server).
func (s *Server) journalNode() int64 {
	if s.dist != nil {
		return int64(s.dist.nodeID)
	}
	return 0
}

// DecisionStats assembles the full decision ledger: the policy engine's
// eviction/substitution/epoch half overlaid with the serving layer's
// admission provenance and prefetch outcomes.
func (s *Server) DecisionStats() metrics.DecisionStats {
	s.policyMu.Lock()
	d := s.cache.DecisionLedger()
	s.policyMu.Unlock()

	d.AdmitFetch = atomic.LoadInt64(&s.dec.admitFetch)
	d.AdmitPrefetch = atomic.LoadInt64(&s.dec.admitPrefetch)
	d.AdmitRehydrate = atomic.LoadInt64(&s.dec.admitRehydrate)

	if p := s.prefetch; p != nil {
		queued := atomic.LoadInt64(&p.queued)
		enqDropped := atomic.LoadInt64(&p.dropped)
		failed := atomic.LoadInt64(&p.failedOutcome)
		d.PrefetchIssued = queued + enqDropped
		d.PrefetchInTime = atomic.LoadInt64(&p.inTime)
		d.PrefetchLate = atomic.LoadInt64(&p.late)
		d.PrefetchWasted = atomic.LoadInt64(&p.wasted)
		d.PrefetchDropped = enqDropped + failed
	}
	return d
}

// TimelinePoint snapshots every stats family as one flat name→value map —
// the collector /debug/timeline's Timeline ticks. Rates are left to
// consumers (icache-top differentiates successive points).
func (s *Server) TimelinePoint() map[string]float64 {
	s.policyMu.Lock()
	st := s.cache.Stats()
	hLen, lLen := s.cache.HCacheLen(), s.cache.LCacheLen()
	s.policyMu.Unlock()
	d := s.DecisionStats()
	ov := s.OverloadStats()
	ps := s.PlanStats()
	peerServes, peerHits := s.PeerStats()

	var gateState float64
	switch ov.GateState {
	case overload.Brownout.String():
		gateState = 1
	case overload.Shed.String():
		gateState = 2
	}
	return map[string]float64{
		"hits":                    float64(st.Hits),
		"misses":                  float64(st.Misses),
		"substitutions":           float64(st.Substitutions),
		"degraded":                float64(st.Degraded),
		"requests":                float64(st.Requests()),
		"shed":                    float64(ov.Shed),
		"expired":                 float64(ov.Expired),
		"hcache_len":              float64(hLen),
		"lcache_len":              float64(lLen),
		"payload_len":             float64(s.payloads.len()),
		"gate_state":              gateState,
		"breakers_open":           float64(ov.BreakersOpen),
		"breaker_trips":           float64(ov.BreakerTrips),
		"evict_capacity":          float64(d.EvictCapacity),
		"evict_dead_owner":        float64(d.EvictDeadOwner),
		"evict_scrub":             float64(d.EvictScrub),
		"evict_checkpoint_denied": float64(d.EvictCheckpointDenied),
		"prefetch_issued":         float64(d.PrefetchIssued),
		"prefetch_in_time":        float64(d.PrefetchInTime),
		"prefetch_late":           float64(d.PrefetchLate),
		"prefetch_wasted":         float64(d.PrefetchWasted),
		"prefetch_dropped":        float64(d.PrefetchDropped),
		"prefetch_timeliness":     d.PrefetchTimeliness(),
		"sub_exact":               float64(d.SubExact),
		"sub_fallback":            float64(d.SubFallback),
		"epoch":                   float64(d.Epoch),
		"epoch_hcache_len":        float64(d.EpochHCount),
		"epoch_lcache_len":        float64(d.EpochLCount),
		"peer_serves":             float64(peerServes),
		"peer_hits":               float64(peerHits),
		"plan_planned":            float64(ps.Planned),
		"plan_completed":          float64(ps.Completed),
		"plan_remaining":          float64(ps.Remaining),
		"demand_fetches":          float64(s.DemandFetches()),
	}
}
