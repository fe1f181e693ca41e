package rpc

import (
	"net/http"
	"sync/atomic"
	"time"

	"icache/internal/metrics"
	"icache/internal/overload"
	"icache/internal/wire"
)

// MetricsSnapshot is Metrics' typed view for in-process callers: the cache
// counters plus the operational gauges. The metrics endpoint serves the
// Prometheus exposition (prom.go), which carries all of it and more.
type MetricsSnapshot struct {
	UptimeSeconds float64

	Hits          int64
	Misses        int64
	Substitutions int64
	HitRatio      float64
	Inserts       int64
	Evictions     int64

	HCacheLen  int
	LCacheLen  int
	Tier2Len   int
	PayloadLen int

	PackagesLoaded    int64
	LoaderUsefulBytes int64
	LoaderWastedBytes int64
	Tier2Hits         int64

	PeerServes int64
	PeerHits   int64

	// Node-lifecycle counters (zero unless StartMembership ran).
	MembershipRegisters  int64
	MembershipHeartbeats int64
	MembershipHBRejects  int64
	ScrubSweeps          int64
	ScrubReleased        int64
	ScrubReclaimed       int64
	ScrubDropped         int64
	ReplayedClaims       int64
	ReplayDenied         int64

	// Concurrent-serving-path counters (see metrics.ServingStats).
	CoalescedMisses    int64
	PrefetchWorkers    int64
	PrefetchQueued     int64
	PrefetchCompleted  int64
	PrefetchDropped    int64
	PrefetchFailed     int64
	PrefetchQueueDepth int64
	BufferPoolGets     int64
	BufferPoolAllocs   int64
	BufferReuseRate    float64
}

// ServingStats gathers the concurrent-serving-path counters: coalesced
// misses, prefetch-pool activity, and wire buffer-pool reuse. (The buffer
// pool is process-wide — shared with the dkv directory protocol — so its
// numbers cover every wire user in the process, which is what an operator
// wants on a combined node.)
func (s *Server) ServingStats() metrics.ServingStats {
	out := metrics.ServingStats{
		CoalescedMisses: atomic.LoadInt64(&s.coalescedMisses),
	}
	if p := s.prefetch; p != nil {
		out.PrefetchQueued = atomic.LoadInt64(&p.queued)
		out.PrefetchCompleted = atomic.LoadInt64(&p.completed)
		out.PrefetchDropped = atomic.LoadInt64(&p.dropped)
		out.PrefetchFailed = atomic.LoadInt64(&p.failed)
		out.PrefetchQueueDepth = int64(p.depth())
		out.PrefetchWorkers = int64(p.workers)
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
		out.GateState = gs.State.String()
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

// Metrics gathers a consistent snapshot of the policy counters (one short
// policyMu critical section) plus the lock-free serving counters.
func (s *Server) Metrics() MetricsSnapshot {
	s.policyMu.Lock()
	st := s.cache.Stats()
	snap := MetricsSnapshot{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Hits:              st.Hits,
		Misses:            st.Misses,
		Substitutions:     st.Substitutions,
		HitRatio:          st.HitRatio(),
		Inserts:           st.Inserts,
		Evictions:         st.Evictions,
		HCacheLen:         s.cache.HCacheLen(),
		LCacheLen:         s.cache.LCacheLen(),
		Tier2Len:          s.cache.Tier2Len(),
		PackagesLoaded:    s.cache.PackagesLoaded(),
		LoaderUsefulBytes: s.cache.LoaderUsefulBytes(),
		LoaderWastedBytes: s.cache.LoaderWastedBytes(),
		Tier2Hits:         s.cache.Tier2Hits(),
	}
	s.policyMu.Unlock()

	snap.PayloadLen = s.payloads.len()
	if s.dist != nil {
		snap.PeerServes = atomic.LoadInt64(&s.dist.peerServes)
		snap.PeerHits = atomic.LoadInt64(&s.dist.peerHits)
		mem := s.MembershipStats()
		snap.MembershipRegisters = mem.Registers
		snap.MembershipHeartbeats = mem.Heartbeats
		snap.MembershipHBRejects = mem.HeartbeatRejects
		snap.ScrubSweeps = mem.ScrubSweeps
		snap.ScrubReleased = mem.ScrubReleased
		snap.ScrubReclaimed = mem.ScrubReclaimed
		snap.ScrubDropped = mem.ScrubDropped
		snap.ReplayedClaims = mem.ReplayedClaims
		snap.ReplayDenied = mem.ReplayDenied
	}
	sv := s.ServingStats()
	snap.CoalescedMisses = sv.CoalescedMisses
	snap.PrefetchWorkers = sv.PrefetchWorkers
	snap.PrefetchQueued = sv.PrefetchQueued
	snap.PrefetchCompleted = sv.PrefetchCompleted
	snap.PrefetchDropped = sv.PrefetchDropped
	snap.PrefetchFailed = sv.PrefetchFailed
	snap.PrefetchQueueDepth = sv.PrefetchQueueDepth
	snap.BufferPoolGets = sv.BufferGets
	snap.BufferPoolAllocs = sv.BufferAllocs
	snap.BufferReuseRate = sv.BufferReuseRate()
	return snap
}

// MetricsHandler serves the Prometheus text exposition on GET /metrics (any
// path; the ?format=prom older scrapers send is accepted and ignored).
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
