package rpc

import (
	"net/http"
	"sync/atomic"

	"icache/internal/metrics"
	"icache/internal/overload"
	"icache/internal/wire"
)

// MetricsSnapshot is Metrics' typed view for in-process callers (the
// benchmark's window edges, tests, examples): the cache counters as the
// family internal/metrics already describes, plus the few gauges and counters
// a caller reads beside them. Everything else a node counts is a row of the
// series table (series.go) or one of the typed accessors below.
type MetricsSnapshot struct {
	metrics.CacheStats

	UptimeSeconds     float64
	HCacheLen         int
	LoaderUsefulBytes int64
	// LoaderWastedBytes is the engine's static-packaging read amplification
	// (icache.View.LoaderWasted). Every server on the wire packs dynamically,
	// so it reads 0 there; the benchmark's loader-share metric divides by it.
	LoaderWastedBytes int64
	PeerHits          int64
}

// ServingStats gathers the concurrent-serving-path counters: coalesced
// misses, the prefetch queue's depth (its outcomes are the decision ledger's),
// and wire buffer-pool reuse. (The buffer pool is process-wide — shared with
// the dkv directory protocol — so its numbers cover every wire user in the
// process, which is what an operator wants on a combined node.)
func (s *Server) ServingStats() metrics.ServingStats {
	out := metrics.ServingStats{
		CoalescedMisses:    atomic.LoadInt64(&s.coalescedMisses),
		PrefetchQueueDepth: int64(s.prefetch.depth()),
	}
	gets, news, discards := wire.PoolStats()
	out.BufferGets, out.BufferAllocs, out.BufferDiscards = gets, news, discards
	vgets, vnews, vdiscards := wire.VecPoolStats()
	out.VecGets, out.VecAllocs, out.VecDiscards = vgets, vnews, vdiscards
	out.PayloadBytes = s.payloads.liveBytes.Load()
	out.PayloadPins = s.payloads.refReads.Load()
	out.PeerBatchRPCs, out.PeerBatchSamples = s.PeerBatchStats()
	out.MuxInflight = s.t.MuxInflight()
	return out
}

// OverloadStats gathers the overload-control counters: admission gate
// decisions, server-side deadline drops, and per-peer breaker lifecycle
// aggregated across peers.
func (s *Server) OverloadStats() metrics.OverloadStats {
	var out metrics.OverloadStats
	out.Shed, out.Expired = s.t.OverloadCounters()
	if g := s.t.Gate; g != nil {
		gs := g.Stats()
		out.GateState = int64(gs.State)
		out.Inflight = gs.Inflight
		out.Admitted = gs.Admitted
		out.Brownouts = gs.Brownouts
		out.Sheds = gs.Sheds
	}
	for _, bs := range s.PeerBreakerStats() {
		if bs.State != overload.BreakerClosed {
			out.BreakersOpen++
		}
		out.BreakerTrips += bs.Trips
		out.BreakerFastFails += bs.FastFails
		out.BreakerProbes += bs.Probes
		out.BreakerRecoveries += bs.Recoveries
	}
	return out
}

// Metrics reads the typed view out of one gathered view (one short policyMu
// critical section).
func (s *Server) Metrics() MetricsSnapshot {
	v := s.gather()
	return MetricsSnapshot{
		CacheStats:        v.Cache,
		UptimeSeconds:     v.uptime,
		HCacheLen:         v.HLen,
		LoaderUsefulBytes: v.LoaderUseful,
		LoaderWastedBytes: v.LoaderWasted,
		PeerHits:          v.peerHits,
	}
}

// MetricsHandler serves the Prometheus text exposition on GET /metrics (any
// path; a query is ignored).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WritePrometheus(w); err != nil && s.Logf != nil {
			s.Logf("rpc: prometheus write: %v", err)
		}
	})
}
