package rpc

import (
	"io"
	"time"

	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/obs"
)

// This file is the node's one description of its flat series. Each counter
// or gauge is one row of nodeView.rows: its Prometheus name, HELP text and
// TYPE, the /debug/timeline key it also appears under ("" = not on the
// timeline), and its value read from one gathered view. The two consumers —
// WritePrometheus (the one exposition the metrics endpoint serves) and
// TimelinePoint (the collector /debug/timeline ticks) — are loops over the
// table, so a number cannot appear on the timeline under a value that
// disagrees with /metrics, and adding a counter is adding a row. The typed
// families stay in internal/metrics (the simulator shares them); `make lint`
// keeps "icache_ literals and PromWriter calls out of the package's other
// files.
//
// Row order is exposition order and each row's lines are deterministic, so a
// scrape is byte-stable for unchanged counters; the header golden
// (testdata/exposition_headers.golden) pins names, HELP, TYPE and order.

// nodeView is everything one scrape reads, gathered once: the policy
// engine's view under ONE policyMu hold (so an eviction total and its
// reason-coded parts, or requests and its four outcome classes, come from
// one instant), the rest from the atomics and short locks of their owners.
type nodeView struct {
	uptime float64

	// icache.View is the engine's half; its Ledger also carries the
	// serving layer's overlay.
	icache.View
	payloadLen                int
	peerServes, peerHits      int64
	peerFailures, dirFailures int64
	memoRouted, memoStale     int64

	mem  metrics.MembershipStats
	sv   metrics.ServingStats
	ov   metrics.OverloadStats
	plan PlanStats

	demandFetches  int64
	readsInflight  int
	journalEvents  uint64
	journalDropped uint64
	traceDropped   uint64
}

// gather takes the view.
func (s *Server) gather() *nodeView {
	v := &nodeView{uptime: time.Since(s.start).Seconds()}

	s.policyMu.Lock()
	v.View = s.cache.View()
	s.policyMu.Unlock()

	s.overlayServingDecisions(&v.Ledger)
	v.payloadLen = s.payloads.len()
	v.peerServes, v.peerHits = s.PeerStats()
	v.peerFailures, v.dirFailures = s.ResilienceStats()
	if d := s.dist; d != nil {
		v.memoRouted, v.memoStale = d.owners.routed.Load(), d.owners.stale.Load()
	}
	v.mem = s.MembershipStats()
	v.sv = s.ServingStats()
	v.ov = s.OverloadStats()
	v.plan = s.PlanStats()
	v.demandFetches = s.DemandFetches()
	v.readsInflight = len(s.readSlots)
	v.journalEvents, v.journalDropped = s.journal.Total(), s.journal.Dropped()
	v.traceDropped = s.obs.tracer.Dropped()
	return v
}

// A row's Prometheus TYPE.
const counter, gauge = "counter", "gauge"

// series is one row of the table.
type series struct {
	name, help string
	kind       string
	key        string // /debug/timeline key; "" = exposition only
	v          float64
}

// rows is the table: every flat series of the node, in exposition order.
func (v *nodeView) rows() []series {
	return []series{
		{"icache_uptime_seconds", "seconds since the server started", gauge, "", v.uptime},

		// Cache family (metrics.CacheStats + occupancy).
		{"icache_cache_hits_total", "requests served from cached copies of the requested sample", counter, "hits", float64(v.Cache.Hits)},
		{"icache_cache_misses_total", "requests that went to backend storage", counter, "misses", float64(v.Cache.Misses)},
		{"icache_cache_substitutions_total", "requests served by a different cached sample", counter, "substitutions", float64(v.Cache.Substitutions)},
		{"icache_cache_degraded_total", "requests that fell back to the backend because a fault broke the preferred path", counter, "degraded", float64(v.Cache.Degraded)},
		{"icache_cache_inserts_total", "samples admitted into the cache", counter, "", float64(v.Cache.Inserts)},
		{"icache_cache_evictions_total", "samples evicted to make room", counter, "", float64(v.Cache.Evictions)},
		{"icache_cache_rejections_total", "fetched samples the policy declined to admit", counter, "", float64(v.Cache.Rejections)},
		{"icache_cache_requests_total", "total sample requests (hits+misses+substitutions+degraded)", counter, "requests", float64(v.Cache.Requests())},
		{"icache_cache_hit_ratio", "policy-level: fraction of requests decided a hit or a substitution, whose substitute may still be read from the backend (0 when no requests yet)", gauge, "", v.Cache.HitRatio()},
		{"icache_hcache_len", "samples resident in the H-cache region", gauge, "hcache_len", float64(v.HLen)},
		{"icache_lcache_len", "samples resident in the L-cache region", gauge, "lcache_len", float64(v.LLen)},
		{"icache_payload_len", "payloads resident in the byte store", gauge, "payload_len", float64(v.payloadLen)},

		// Loader family. The wire reads no package bytes: the policy marks a
		// package's entries L-resident and each entry's bytes arrive on its
		// first request.
		{"icache_loader_packages_total", "dynamic packages loaded by the background loader", counter, "", float64(v.Packages)},
		{"icache_loader_useful_bytes_total", "sizes of the package entries the policy marked L-resident (no package bytes are read on the wire)", counter, "", float64(v.LoaderUseful)},
		{"icache_loader_wasted_bytes_total", "sizes of package entries the policy could not mark resident (no package bytes are read on the wire)", counter, "", float64(v.LoaderWasted)},

		// Peer / resilience family (distribution disabled renders zeros).
		{"icache_peer_serves_total", "requests this node answered for peers", counter, "peer_serves", float64(v.peerServes)},
		{"icache_peer_hits_total", "local misses served from a peer's cache", counter, "peer_hits", float64(v.peerHits)},
		{"icache_resilience_peer_failures_total", "peer dials/reads that failed and were degraded around", counter, "", float64(v.peerFailures)},
		{"icache_resilience_dir_failures_total", "directory operations that failed and were degraded around", counter, "", float64(v.dirFailures)},
		{"icache_owner_memo_routed_total", "miss ids routed by the directory's remembered answer, without a directory call", counter, "", float64(v.memoRouted)},
		{"icache_owner_memo_stale_total", "remembered directory answers contradicted (peer answered absent, peer failed, claim lost) and forgotten", counter, "", float64(v.memoStale)},

		// Membership family (metrics.MembershipStats; zeros unless
		// StartMembership ran).
		{"icache_membership_registers_total", "lease grants (first registrations and re-registrations)", counter, "", float64(v.mem.Registers)},
		{"icache_membership_heartbeats_total", "successful lease renewals", counter, "", float64(v.mem.Heartbeats)},
		{"icache_membership_heartbeat_rejects_total", "heartbeats arriving at/after lease expiry", counter, "", float64(v.mem.HeartbeatRejects)},
		{"icache_membership_suspects_total", "observed Live to Suspect transitions", counter, "", float64(v.mem.Suspects)},
		{"icache_membership_deaths_total", "observed transitions to Dead", counter, "", float64(v.mem.Deaths)},
		{"icache_membership_revivals_total", "registrations that revived a Suspect/Dead node", counter, "", float64(v.mem.Revivals)},
		{"icache_membership_reclaims_total", "claims that took over a Dead node's entry", counter, "", float64(v.mem.Reclaims)},
		{"icache_membership_purged_total", "Dead-owned directory entries garbage-collected", counter, "", float64(v.mem.Purged)},
		{"icache_membership_scrub_sweeps_total", "anti-entropy sweeps completed", counter, "", float64(v.mem.ScrubSweeps)},
		{"icache_membership_scrub_released_total", "orphaned directory entries released", counter, "", float64(v.mem.ScrubReleased)},
		{"icache_membership_scrub_reclaimed_total", "cached-but-unregistered samples re-claimed", counter, "", float64(v.mem.ScrubReclaimed)},
		{"icache_membership_scrub_dropped_total", "local copies dropped because another node owns the sample", counter, "", float64(v.mem.ScrubDropped)},
		{"icache_membership_replayed_claims_total", "ownership claims replayed from a checkpoint on rejoin", counter, "", float64(v.mem.ReplayedClaims)},
		{"icache_membership_replay_denied_total", "replayed claims denied (the survivor won)", counter, "", float64(v.mem.ReplayDenied)},

		// Concurrent-serving-path family (metrics.ServingStats).
		{"icache_serving_coalesced_misses_total", "miss fetches that joined an in-flight fetch for the same sample", counter, "", float64(v.sv.CoalescedMisses)},
		{"icache_prefetch_queue_depth", "current prefetch backlog", gauge, "", float64(v.sv.PrefetchQueueDepth)},
		{"icache_buffer_pool_gets_total", "pooled-buffer checkouts on the wire path", counter, "", float64(v.sv.BufferGets)},
		{"icache_buffer_pool_allocs_total", "checkouts that had to allocate (pool miss)", counter, "", float64(v.sv.BufferAllocs)},
		{"icache_buffer_reuse_rate", "fraction of checkouts served without allocating (0 when none yet)", gauge, "", v.sv.BufferReuseRate()},
		{"icache_peer_batch_rpcs_total", "scatter-gather peer batch round trips issued", counter, "", float64(v.sv.PeerBatchRPCs)},
		{"icache_peer_batch_samples_total", "samples carried by batched peer RPCs", counter, "", float64(v.sv.PeerBatchSamples)},
		{"icache_mux_inflight", "multiplexed request frames currently being served", gauge, "", float64(v.sv.MuxInflight)},
		{"icache_buffer_pool_discards_total", "pooled-buffer returns dropped for exceeding the retained-capacity cap", counter, "", float64(v.sv.BufferDiscards)},
		{"icache_vec_pool_gets_total", "pooled response-vector checkouts on the zero-copy path", counter, "", float64(v.sv.VecGets)},
		{"icache_vec_pool_allocs_total", "vector checkouts that had to allocate (pool miss)", counter, "", float64(v.sv.VecAllocs)},
		{"icache_vec_pool_discards_total", "vector returns dropped for exceeding the retained-capacity cap", counter, "", float64(v.sv.VecDiscards)},

		// Payload-store family (zero-copy hit path).
		{"icache_payload_bytes", "bytes of live payload entries in the store", gauge, "", float64(v.sv.PayloadBytes)},
		{"icache_payload_pins_total", "payload reads served by reference from the store", counter, "", float64(v.sv.PayloadPins)},

		// Overload-control family (metrics.OverloadStats; zeros with no gate
		// or breakers configured). The gate state renders as a 0/1/2 gauge:
		// 0=normal, 1=brownout, 2=shed.
		{"icache_overload_gate_state", "admission ladder position (0=normal, 1=brownout, 2=shed)", gauge, "gate_state", float64(v.ov.GateState)},
		{"icache_overload_inflight", "requests currently holding an admission slot", gauge, "", float64(v.ov.Inflight)},
		{"icache_overload_admitted_total", "requests the admission gate let through", counter, "", float64(v.ov.Admitted)},
		{"icache_overload_shed_total", "requests rejected with a retry-after hint", counter, "shed", float64(v.ov.Shed)},
		{"icache_overload_expired_total", "requests dropped server-side with their deadline budget spent", counter, "expired", float64(v.ov.Expired)},
		{"icache_overload_brownouts_total", "entries into the brownout state", counter, "", float64(v.ov.Brownouts)},
		{"icache_overload_sheds_total", "entries into the shed state", counter, "", float64(v.ov.Sheds)},
		{"icache_overload_breakers_open", "peer circuit breakers currently open or half-open", gauge, "breakers_open", float64(v.ov.BreakersOpen)},
		{"icache_overload_breaker_trips_total", "peer breaker closed-to-open transitions", counter, "breaker_trips", float64(v.ov.BreakerTrips)},
		{"icache_overload_breaker_fast_fails_total", "peer calls rejected by an open breaker without touching the network", counter, "", float64(v.ov.BreakerFastFails)},
		{"icache_overload_breaker_probes_total", "half-open probe calls issued to suspect peers", counter, "", float64(v.ov.BreakerProbes)},
		{"icache_overload_breaker_recoveries_total", "peer breakers re-closed by a successful probe", counter, "", float64(v.ov.BreakerRecoveries)},

		// Decision-level introspection family (metrics.DecisionStats): reason-
		// coded evictions, admission provenance, the prefetch-outcome ledger,
		// substitution quality, and the epoch-boundary residency snapshot.
		{"icache_evict_capacity_total", "evictions by the policy's own insert pressure", counter, "evict_capacity", float64(v.Ledger.EvictCapacity)},
		{"icache_evict_dead_owner_total", "drops because the directory credits another node", counter, "evict_dead_owner", float64(v.Ledger.EvictDeadOwner)},
		{"icache_evict_scrub_total", "drops by the anti-entropy scrubber", counter, "evict_scrub", float64(v.Ledger.EvictScrub)},
		{"icache_evict_checkpoint_denied_total", "restored residents dropped on a denied ownership replay", counter, "evict_checkpoint_denied", float64(v.Ledger.EvictCheckpointDenied)},
		{"icache_evict_dir_unavailable_total", "admitted copies dropped because their directory claim got no answer", counter, "", float64(v.Ledger.EvictDirUnavailable)},
		{"icache_evict_reasoned_total", "all removals (reason-coded counters sum to this)", counter, "", float64(v.Ledger.EvictTotal)},
		{"icache_admit_fetch_total", "payload admissions driven by foreground fetches", counter, "", float64(v.Ledger.AdmitFetch)},
		{"icache_admit_prefetch_total", "payload admissions driven by the prefetch pool", counter, "", float64(v.Ledger.AdmitPrefetch)},
		{"icache_admit_rehydrate_total", "payload admissions from checkpoint rehydration", counter, "", float64(v.Ledger.AdmitRehydrate)},
		{"icache_prefetch_issued_total", "plan entries queued on the prefetch pool", counter, "prefetch_issued", float64(v.Ledger.PrefetchIssued)},
		{"icache_prefetch_in_time_total", "prefetched payloads that served a request before anything else happened", counter, "prefetch_in_time", float64(v.Ledger.PrefetchInTime)},
		{"icache_prefetch_late_total", "prefetches the foreground beat to the fetch", counter, "prefetch_late", float64(v.Ledger.PrefetchLate)},
		{"icache_prefetch_wasted_total", "prefetched payloads evicted or epoch-swept untouched", counter, "prefetch_wasted", float64(v.Ledger.PrefetchWasted)},
		{"icache_prefetch_outcome_dropped_total", "plan entries the policy refused or whose fetch failed", counter, "prefetch_dropped", float64(v.Ledger.PrefetchDropped)},
		{"icache_prefetch_timeliness_ratio", "in-time / (in-time + late + wasted); 0 before any prefetch resolves", gauge, "prefetch_timeliness", v.Ledger.PrefetchTimeliness()},
		{"icache_substitution_exact_total", "substitutions served by the same-region L-cache walk", counter, "sub_exact", float64(v.Ledger.SubExact)},
		{"icache_substitution_fallback_total", "substitutions served by the cross-region H-resident fallback", counter, "sub_fallback", float64(v.Ledger.SubFallback)},
		{"icache_epoch", "training epochs the cache has crossed", gauge, "epoch", float64(v.Ledger.Epoch)},
		{"icache_epoch_hcache_len", "H-cache residents at the last epoch boundary", gauge, "epoch_hcache_len", float64(v.Ledger.EpochHCount)},
		{"icache_epoch_lcache_len", "L-cache residents at the last epoch boundary", gauge, "epoch_lcache_len", float64(v.Ledger.EpochLCount)},
		{"icache_epoch_hcache_bytes", "H-cache bytes at the last epoch boundary", gauge, "", float64(v.Ledger.EpochHBytes)},
		{"icache_epoch_lcache_bytes", "L-cache bytes at the last epoch boundary", gauge, "", float64(v.Ledger.EpochLBytes)},

		// Clairvoyant-plan family (zeros but the epoch until a client sends a
		// plan; an epoch crossed without one prefetches nothing). The
		// demand-fetch counter is the headline: cold misses the plan failed to
		// pre-place.
		{"icache_plan_epoch", "epoch the current prefetch plan was installed for", gauge, "", float64(v.plan.Epoch)},
		{"icache_plan_planned", "entries admitted to the current epoch's prefetch plan", gauge, "plan_planned", float64(v.plan.Planned)},
		{"icache_plan_completed", "current-epoch plan entries drained", gauge, "plan_completed", float64(v.plan.Completed)},
		{"icache_plan_remaining", "current-epoch plan entries still queued or in flight", gauge, "plan_remaining", float64(v.plan.Remaining)},
		{"icache_plan_completed_entries_total", "plan entries drained across all epochs", counter, "", float64(v.plan.CompletedTotal)},
		{"icache_plan_skipped_resident_total", "plan entries skipped because their bytes were already local", counter, "", float64(v.plan.SkippedResident)},
		{"icache_plan_skipped_cluster_total", "plan entries skipped because a live peer already owned them", counter, "", float64(v.plan.SkippedCluster)},
		{"icache_plan_preplace_sent_total", "plan entries accepted by their future owner nodes", counter, "", float64(v.plan.PreplaceSent)},
		{"icache_plan_preplace_recv_total", "plan entries accepted from peers' plans", counter, "", float64(v.plan.PreplaceRecv)},
		{"icache_plan_reroutes_total", "plan entries re-routed locally after a failed pre-place", counter, "", float64(v.plan.Reroutes)},
		{"icache_demand_fetches_total", "backend reads issued on the demand path (cold misses)", counter, "demand_fetches", float64(v.demandFetches)},
		{"icache_backend_reads_inflight", "backend reads holding a slot of the server-wide read budget", gauge, "", float64(v.readsInflight)},
		{"icache_backend_read_budget", "most backend reads the server keeps in flight (a constant)", gauge, "", backendReadBudget},

		// Event-journal and trace-ring retention family.
		{"icache_journal_events_total", "control-plane events appended to the journal", counter, "", float64(v.journalEvents)},
		{"icache_journal_dropped_total", "journal events overwritten by ring wraparound", counter, "", float64(v.journalDropped)},
		{"icache_trace_dropped_spans_total", "trace spans overwritten by ring wraparound", counter, "", float64(v.traceDropped)},
	}
}

// WritePrometheus writes the Prometheus text exposition: every row of the
// series table from one gathered view, then (when EnableObs ran) the
// per-stage latency histograms with p50/p95/p99 companion gauges.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	for _, r := range s.gather().rows() {
		p.Metric(r.name, r.help, r.kind, r.v)
	}
	// Per-stage latency histograms (nil registry emits nothing).
	p.Registry("icache_stage", s.obs.reg)
	return p.Err()
}

// TimelinePoint snapshots the rows that carry a timeline key as one flat
// key→value map — the collector /debug/timeline's Timeline ticks. Rates are
// left to consumers (icache-top differentiates successive points).
func (s *Server) TimelinePoint() map[string]float64 {
	out := make(map[string]float64)
	for _, r := range s.gather().rows() {
		if r.key != "" {
			out[r.key] = r.v
		}
	}
	return out
}
