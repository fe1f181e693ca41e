package rpc

import (
	"sync/atomic"

	"icache/internal/metrics"
	"icache/internal/obs"
)

// Decision-level introspection for the serving layer: admission provenance
// counters, the prefetch-outcome ledger (kept by the prefetcher) and the
// control-plane event journal. The policy half of the ledger (eviction
// reasons, substitution quality, epoch residency) lives in internal/icache;
// DecisionStats overlays the two.

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
	d := s.cache.View().Ledger
	s.policyMu.Unlock()
	s.overlayServingDecisions(&d)
	return d
}

// overlayServingDecisions fills the serving layer's half of the ledger
// (atomics and the prefetch pool's leaf lock).
func (s *Server) overlayServingDecisions(d *metrics.DecisionStats) {
	d.AdmitFetch = atomic.LoadInt64(&s.dec.admitFetch)
	d.AdmitPrefetch = atomic.LoadInt64(&s.dec.admitPrefetch)
	d.AdmitRehydrate = atomic.LoadInt64(&s.dec.admitRehydrate)
	s.prefetch.ledger(d)
}
