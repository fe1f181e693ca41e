package rpc

import (
	"io"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
)

// This file renders the server's metrics surface, the one exposition the
// metrics endpoint serves, in Prometheus text format (stdlib-only, via
// obs.PromWriter): the raw stats families plus every registered per-stage
// latency histogram.
//
// Family ordering is fixed code order and each family's lines are
// deterministic, so a scrape is byte-stable for unchanged counters — the
// exposition golden test pins the exact bytes.

// WritePrometheus writes the Prometheus text exposition of every metrics
// family: cache counters and occupancy, loader traffic, peer/distribution
// counters, resilience failure counters, membership lifecycle counters,
// concurrent-serving-path counters, and (when EnableObs ran) the
// per-stage latency histograms with p50/p95/p99 companion gauges.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)

	s.policyMu.Lock()
	st := s.cache.Stats()
	hLen, lLen, t2Len := s.cache.HCacheLen(), s.cache.LCacheLen(), s.cache.Tier2Len()
	pkgs := s.cache.PackagesLoaded()
	useful, wasted := s.cache.LoaderUsefulBytes(), s.cache.LoaderWastedBytes()
	t2Hits := s.cache.Tier2Hits()
	s.policyMu.Unlock()

	p.Gauge("icache_uptime_seconds", "seconds since the server started", time.Since(s.start).Seconds())

	// Cache family (metrics.CacheStats + occupancy).
	p.Counter("icache_cache_hits_total", "requests served from cached copies of the requested sample", float64(st.Hits))
	p.Counter("icache_cache_misses_total", "requests that went to backend storage", float64(st.Misses))
	p.Counter("icache_cache_substitutions_total", "requests served by a different cached sample", float64(st.Substitutions))
	p.Counter("icache_cache_degraded_total", "requests that fell back to the backend because a fault broke the preferred path", float64(st.Degraded))
	p.Counter("icache_cache_inserts_total", "samples admitted into the cache", float64(st.Inserts))
	p.Counter("icache_cache_evictions_total", "samples evicted to make room", float64(st.Evictions))
	p.Counter("icache_cache_rejections_total", "fetched samples the policy declined to admit", float64(st.Rejections))
	p.Counter("icache_cache_requests_total", "total sample requests (hits+misses+substitutions+degraded)", float64(st.Requests()))
	p.Gauge("icache_cache_hit_ratio", "policy-level: fraction of requests decided a hit or a substitution, whose substitute may still be read from the backend (0 when no requests yet)", st.HitRatio())
	p.Gauge("icache_hcache_len", "samples resident in the H-cache region", float64(hLen))
	p.Gauge("icache_lcache_len", "samples resident in the L-cache region", float64(lLen))
	p.Gauge("icache_tier2_len", "samples spilled to the tier-2 region", float64(t2Len))
	p.Gauge("icache_payload_len", "payloads resident in the byte store", float64(s.payloads.len()))

	// Loader family.
	p.Counter("icache_loader_packages_total", "dynamic packages loaded by the background loader", float64(pkgs))
	p.Counter("icache_loader_useful_bytes_total", "loaded bytes that were requested before eviction", float64(useful))
	p.Counter("icache_loader_wasted_bytes_total", "loaded bytes evicted unused", float64(wasted))
	p.Counter("icache_tier2_hits_total", "misses served from the tier-2 spill region", float64(t2Hits))

	// Peer / resilience family (distribution disabled renders zeros).
	peerServes, peerHits := s.PeerStats()
	peerFailures, dirFailures := s.ResilienceStats()
	p.Counter("icache_peer_serves_total", "requests this node answered for peers", float64(peerServes))
	p.Counter("icache_peer_hits_total", "local misses served from a peer's cache", float64(peerHits))
	p.Counter("icache_resilience_peer_failures_total", "peer dials/reads that failed and were degraded around", float64(peerFailures))
	p.Counter("icache_resilience_dir_failures_total", "directory operations that failed and were degraded around", float64(dirFailures))

	// Membership family (metrics.MembershipStats; zeros unless
	// StartMembership ran).
	mem := s.MembershipStats()
	p.Counter("icache_membership_registers_total", "lease grants (first registrations and re-registrations)", float64(mem.Registers))
	p.Counter("icache_membership_heartbeats_total", "successful lease renewals", float64(mem.Heartbeats))
	p.Counter("icache_membership_heartbeat_rejects_total", "heartbeats arriving at/after lease expiry", float64(mem.HeartbeatRejects))
	p.Counter("icache_membership_suspects_total", "observed Live to Suspect transitions", float64(mem.Suspects))
	p.Counter("icache_membership_deaths_total", "observed transitions to Dead", float64(mem.Deaths))
	p.Counter("icache_membership_revivals_total", "registrations that revived a Suspect/Dead node", float64(mem.Revivals))
	p.Counter("icache_membership_reclaims_total", "claims that took over a Dead node's entry", float64(mem.Reclaims))
	p.Counter("icache_membership_purged_total", "Dead-owned directory entries garbage-collected", float64(mem.Purged))
	p.Counter("icache_membership_scrub_sweeps_total", "anti-entropy sweeps completed", float64(mem.ScrubSweeps))
	p.Counter("icache_membership_scrub_released_total", "orphaned directory entries released", float64(mem.ScrubReleased))
	p.Counter("icache_membership_scrub_reclaimed_total", "cached-but-unregistered samples re-claimed", float64(mem.ScrubReclaimed))
	p.Counter("icache_membership_scrub_dropped_total", "local copies dropped because another node owns the sample", float64(mem.ScrubDropped))
	p.Counter("icache_membership_replayed_claims_total", "ownership claims replayed from a checkpoint on rejoin", float64(mem.ReplayedClaims))
	p.Counter("icache_membership_replay_denied_total", "replayed claims denied (the survivor won)", float64(mem.ReplayDenied))

	// Concurrent-serving-path family (metrics.ServingStats).
	sv := s.ServingStats()
	p.Counter("icache_serving_coalesced_misses_total", "miss fetches that joined an in-flight fetch for the same sample", float64(sv.CoalescedMisses))
	p.Counter("icache_prefetch_queued_total", "loader-delivered samples accepted by the prefetch pool", float64(sv.PrefetchQueued))
	p.Counter("icache_prefetch_completed_total", "prefetches that finished", float64(sv.PrefetchCompleted))
	p.Counter("icache_prefetch_dropped_total", "deliveries discarded because the prefetch queue was full", float64(sv.PrefetchDropped))
	p.Counter("icache_prefetch_failed_total", "prefetch fetches that errored (sample stays lazy)", float64(sv.PrefetchFailed))
	p.Gauge("icache_prefetch_queue_depth", "current prefetch backlog", float64(sv.PrefetchQueueDepth))
	p.Gauge("icache_prefetch_workers", "configured prefetch pool size", float64(sv.PrefetchWorkers))
	p.Counter("icache_buffer_pool_gets_total", "pooled-buffer checkouts on the wire path", float64(sv.BufferGets))
	p.Counter("icache_buffer_pool_allocs_total", "checkouts that had to allocate (pool miss)", float64(sv.BufferAllocs))
	p.Gauge("icache_buffer_reuse_rate", "fraction of checkouts served without allocating (0 when none yet)", sv.BufferReuseRate())
	p.Counter("icache_peer_batch_rpcs_total", "scatter-gather peer batch round trips issued", float64(sv.PeerBatchRPCs))
	p.Counter("icache_peer_batch_samples_total", "samples carried by batched peer RPCs", float64(sv.PeerBatchSamples))
	p.Gauge("icache_mux_inflight", "multiplexed request frames currently being served", float64(sv.MuxInflight))
	p.Counter("icache_buffer_pool_discards_total", "pooled-buffer returns dropped for exceeding the retained-capacity cap", float64(sv.BufferDiscards))
	p.Counter("icache_vec_pool_gets_total", "pooled response-vector checkouts on the zero-copy path", float64(sv.VecGets))
	p.Counter("icache_vec_pool_allocs_total", "vector checkouts that had to allocate (pool miss)", float64(sv.VecAllocs))
	p.Counter("icache_vec_pool_discards_total", "vector returns dropped for exceeding the retained-capacity cap", float64(sv.VecDiscards))

	// Payload-store family (zero-copy hit path).
	p.Gauge("icache_payload_bytes", "bytes of live payload entries in the store", float64(sv.PayloadBytes))
	p.Counter("icache_payload_pins_total", "payload reads served by reference from the store", float64(sv.PayloadPins))

	// Overload-control family (metrics.OverloadStats; zeros with no gate
	// or breakers configured). The gate state renders as a 0/1/2 gauge:
	// 0=normal, 1=brownout, 2=shed.
	ov := s.OverloadStats()
	var gateState float64
	switch ov.GateState {
	case overload.Brownout.String():
		gateState = 1
	case overload.Shed.String():
		gateState = 2
	}
	p.Gauge("icache_overload_gate_state", "admission ladder position (0=normal, 1=brownout, 2=shed)", gateState)
	p.Gauge("icache_overload_inflight", "requests currently holding an admission slot", float64(ov.Inflight))
	p.Counter("icache_overload_admitted_total", "requests the admission gate let through", float64(ov.Admitted))
	p.Counter("icache_overload_shed_total", "requests rejected with a retry-after hint", float64(ov.Shed))
	p.Counter("icache_overload_expired_total", "requests dropped server-side with their deadline budget spent", float64(ov.Expired))
	p.Counter("icache_overload_brownouts_total", "entries into the brownout state", float64(ov.Brownouts))
	p.Counter("icache_overload_sheds_total", "entries into the shed state", float64(ov.Sheds))
	p.Gauge("icache_overload_breakers_open", "peer circuit breakers currently open or half-open", float64(ov.BreakersOpen))
	p.Counter("icache_overload_breaker_trips_total", "peer breaker closed-to-open transitions", float64(ov.BreakerTrips))
	p.Counter("icache_overload_breaker_fast_fails_total", "peer calls rejected by an open breaker without touching the network", float64(ov.BreakerFastFails))
	p.Counter("icache_overload_breaker_probes_total", "half-open probe calls issued to suspect peers", float64(ov.BreakerProbes))
	p.Counter("icache_overload_breaker_recoveries_total", "peer breakers re-closed by a successful probe", float64(ov.BreakerRecoveries))

	// Decision-level introspection family (metrics.DecisionStats): reason-
	// coded evictions, admission provenance, the prefetch-outcome ledger,
	// substitution quality, and the epoch-boundary residency snapshot.
	d := s.DecisionStats()
	p.Counter("icache_evict_capacity_total", "evictions by the policy's own insert pressure", float64(d.EvictCapacity))
	p.Counter("icache_evict_dead_owner_total", "drops because the directory credits another node", float64(d.EvictDeadOwner))
	p.Counter("icache_evict_scrub_total", "drops by the anti-entropy scrubber", float64(d.EvictScrub))
	p.Counter("icache_evict_checkpoint_denied_total", "restored residents dropped on a denied ownership replay", float64(d.EvictCheckpointDenied))
	p.Counter("icache_evict_reasoned_total", "all removals (reason-coded counters sum to this)", float64(d.EvictTotal))
	p.Counter("icache_admit_fetch_total", "payload admissions driven by foreground fetches", float64(d.AdmitFetch))
	p.Counter("icache_admit_prefetch_total", "payload admissions driven by the prefetch pool", float64(d.AdmitPrefetch))
	p.Counter("icache_admit_rehydrate_total", "payload admissions from checkpoint rehydration", float64(d.AdmitRehydrate))
	p.Counter("icache_prefetch_issued_total", "prefetch deliveries offered to the pool", float64(d.PrefetchIssued))
	p.Counter("icache_prefetch_in_time_total", "prefetched payloads that served a request before anything else happened", float64(d.PrefetchInTime))
	p.Counter("icache_prefetch_late_total", "prefetches the foreground beat to the fetch", float64(d.PrefetchLate))
	p.Counter("icache_prefetch_wasted_total", "prefetched payloads evicted or epoch-swept untouched", float64(d.PrefetchWasted))
	p.Counter("icache_prefetch_outcome_dropped_total", "prefetch deliveries dropped at enqueue plus failed fetches", float64(d.PrefetchDropped))
	p.Gauge("icache_prefetch_timeliness_ratio", "in-time / (in-time + late + wasted); 0 before any prefetch resolves", d.PrefetchTimeliness())
	p.Counter("icache_substitution_exact_total", "substitutions served by the same-region L-cache walk", float64(d.SubExact))
	p.Counter("icache_substitution_fallback_total", "substitutions served by the cross-region H-resident fallback", float64(d.SubFallback))
	p.Gauge("icache_epoch", "training epochs the cache has crossed", float64(d.Epoch))
	p.Gauge("icache_epoch_hcache_len", "H-cache residents at the last epoch boundary", float64(d.EpochHCount))
	p.Gauge("icache_epoch_lcache_len", "L-cache residents at the last epoch boundary", float64(d.EpochLCount))
	p.Gauge("icache_epoch_hcache_bytes", "H-cache bytes at the last epoch boundary", float64(d.EpochHBytes))
	p.Gauge("icache_epoch_lcache_bytes", "L-cache bytes at the last epoch boundary", float64(d.EpochLBytes))

	// Clairvoyant-planner family (zeros while the planner is off). The
	// demand-fetch counter is the headline: cold misses the plan failed to
	// pre-place.
	ps := s.PlanStats()
	p.Gauge("icache_plan_epoch", "epoch the current prefetch plan was installed for", float64(ps.Epoch))
	p.Gauge("icache_plan_planned", "entries admitted to the current epoch's prefetch plan", float64(ps.Planned))
	p.Gauge("icache_plan_completed", "current-epoch plan entries drained", float64(ps.Completed))
	p.Gauge("icache_plan_remaining", "current-epoch plan entries still queued", float64(ps.Remaining))
	p.Counter("icache_plan_entries_total", "plan entries admitted across all epochs", float64(ps.EntriesTotal))
	p.Counter("icache_plan_completed_entries_total", "plan entries drained across all epochs", float64(ps.CompletedTotal))
	p.Counter("icache_plan_skipped_resident_total", "plan entries skipped because their bytes were already local", float64(ps.SkippedResident))
	p.Counter("icache_plan_skipped_cluster_total", "plan entries skipped because a live peer already owned them", float64(ps.SkippedCluster))
	p.Counter("icache_plan_preplace_sent_total", "plan entries accepted by their future owner nodes", float64(ps.PreplaceSent))
	p.Counter("icache_plan_preplace_recv_total", "plan entries accepted from peer planners", float64(ps.PreplaceRecv))
	p.Counter("icache_plan_reroutes_total", "plan entries re-routed locally after a failed pre-place", float64(ps.Reroutes))
	p.Counter("icache_demand_fetches_total", "backend reads issued on the demand path (cold misses)", float64(s.DemandFetches()))
	p.Gauge("icache_backend_reads_inflight", "backend reads holding a slot of the server-wide read budget", float64(len(s.readSlots)))
	p.Gauge("icache_backend_read_budget", "most backend reads the server keeps in flight (a constant)", backendReadBudget)

	// Event-journal and trace-ring retention family.
	p.Counter("icache_journal_events_total", "control-plane events appended to the journal", float64(s.journal.Total()))
	p.Counter("icache_journal_dropped_total", "journal events overwritten by ring wraparound", float64(s.journal.Dropped()))
	var traceDropped uint64
	if t := s.obs.tracer; t != nil {
		traceDropped = t.Total() - uint64(t.Len())
	}
	p.Counter("icache_trace_dropped_spans_total", "trace spans overwritten by ring wraparound", float64(traceDropped))

	// Per-stage latency histograms (nil registry emits nothing).
	p.Registry("icache_stage", s.obs.reg)

	return p.Err()
}
