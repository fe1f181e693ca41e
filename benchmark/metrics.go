package main

import (
	"icache/internal/obs"
	"icache/internal/rpc"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units, and bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the benchmark contract asks for that), so each
// is defined on all four workloads; see README.md for what each workload
// reads them from and for the workload-specific end-to-end numbers that are
// reported with the per-layer set instead.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// The workload as the traced run saw it, and the end-to-end numbers
	// only some workloads define.
	{"workload.samples_per_s", "1/s"},
	{"workload.batch_p50_ms", "ms"},
	{"workload.batch_p99_ms", "ms"},
	{"workload.failed_share", "share"},
	{"workload.cpu_s_per_wall_s", "s/s"},
	{"workload.epochs", "count"},
	{"workload.epoch_s", "s"},
	{"workload.hit_ratio", "share"},
	{"workload.backend_reads_per_sample", "1/sample"},
	{"workload.boundaries", "count"},
	{"workload.boundary_p50_ms", "ms"},
	{"workload.paced_p50_ms", "ms"},
	{"workload.paced_p99_ms", "ms"},
	{"workload.paced_ontime_share", "share"},
	{"workload.storm_goodput_per_s", "1/s"},
	{"workload.storm_p50_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
	{"trace.spans_dropped", "count"},
	{"machine.speed", "share"},

	{"wire.encode_batch_us", "us"},
	{"wire.decode_batch_us", "us"},
	{"wire.pool_miss_share", "share"},

	{"rpc.client.round_trip_p50_us", "us"},
	{"rpc.client.round_trip_p99_us", "us"},
	{"rpc.client.verify_us_per_batch", "us"},
	{"rpc.client.boundary_ms", "ms"},
	{"rpc.client.retries", "count"},
	{"rpc.client.redials", "count"},

	{"rpc.server.request_p50_us", "us"},
	{"rpc.server.request_p99_us", "us"},
	{"rpc.server.policy_lock_hold_mean_us", "us"},
	{"rpc.server.local_hit_mean_us", "us"},
	{"rpc.server.singleflight_wait_s", "s"},
	{"rpc.server.backend_fetch_mean_us", "us"},
	{"rpc.server.peer_rpc_batch_p50_us", "us"},
	{"rpc.server.dir_lookup_batch_p50_us", "us"},
	{"rpc.server.prefetch_queue_wait_p50_ms", "ms"},
	{"rpc.server.admission_wait_p99_us", "us"},
	{"rpc.server.unattributed_share", "share"},
	{"rpc.server.wire_gap_us", "us"},
	{"rpc.server.coalesced_share", "share"},
	{"rpc.server.demand_fetches_per_sample", "1/sample"},
	{"rpc.server.prefetch_in_time_share", "share"},
	{"rpc.server.prefetch_dropped", "count"},
	{"rpc.server.payload_pins_per_sample", "1/sample"},
	{"rpc.server.peer_rpcs_per_batch", "1/batch"},
	{"rpc.server.shed", "count"},
	{"rpc.server.expired", "count"},

	{"icache.fetch_ns_per_sample", "ns"},
	{"icache.fetch_locked_2g_ns_per_sample", "ns"},
	{"icache.install_hlist_ms", "ms"},
	{"icache.hit_share", "share"},
	{"icache.substitution_share", "share"},
	{"icache.miss_share", "share"},
	{"icache.evictions_per_s", "1/s"},
	{"icache.loader_useful_share", "share"},

	{"impheap.update_ns", "ns"},
	{"impheap.pop_insert_ns", "ns"},
	{"impheap.shadow_refresh_ms", "ms"},

	{"singleflight.do_ns", "ns"},
	{"singleflight.do_shared_2g_ns", "ns"},

	{"overload.admit_ns", "ns"},
	{"overload.admitted", "count"},
	{"overload.refused_share", "share"},
	{"overload.brownouts", "count"},

	{"dkv.directory.lookup_ns_per_id", "ns"},
	{"dkv.dirclient.lookup_batch_us_1c", "us"},
	{"dkv.dirclient.lookup_batch_us_2c", "us"},
	{"dkv.lookup_batch.calls_per_batch", "1/batch"},
	{"dkv.lookup_batch.p50_us", "us"},
	{"dkv.claim.calls_per_s", "1/s"},
	{"dkv.claim.p50_us", "us"},
	{"dkv.release.calls_per_s", "1/s"},
	{"dkv.busy_s", "s"},
	{"dkv.calls", "count"},
	{"dkv.errors", "count"},

	{"sampling.iis_schedule_ms", "ms"},
	{"sampling.hlist_len", "count"},

	{"storage.fetch.calls_per_sample", "1/sample"},
	{"storage.fetch.mean_ms", "ms"},
	{"storage.fetch.busy_s", "s"},
	{"storage.fetch.max_concurrent", "count"},
	{"storage.generate_us", "us"},

	{"dataset.verify_us_per_sample", "us"},

	{"process.cpu_us_per_sample", "us"},
	{"process.syscalls_per_batch", "1/batch"},
	{"process.allocs_per_batch", "1/batch"},
	{"process.alloc_bytes_per_batch", "B/batch"},
	{"process.gc_pause_ms", "ms"},
	{"process.mutex_wait_s", "s"},
	{"process.peak_rss_mb", "MB"},

	{"generator.lag_p99_ms", "ms"},
	{"generator.behind_share", "share"},
}

// requestStages are the stage histograms whose time is spent inside a
// GetBatch serve; their totals are set against the request stage's total to
// find the share of request time no stage accounts for.
var requestStages = []string{
	rpc.StagePolicyLockHold, rpc.StageLocalHit, rpc.StageSingleflightWait,
	rpc.StagePeerRPC, rpc.StagePeerRPCBatch, rpc.StageDirLookup, rpc.StageDirLookupBatch,
}

// layerMetrics turns a traced window into the per-layer metrics: spans the
// benchmark took around client calls, the node's public counters and stage
// registry read before and after the window, and the process's resource
// use. ref is the short untraced window the tracing overhead is set against.
func layerMetrics(w, ref *window) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0 // a metric that does not apply to the workload reads 0
	}
	b, a := w.before, w.after
	samples, batches, wall := float64(w.samples), float64(w.batches), secs(w.wall)
	stage := func(name string) obs.HistSnapshot { return histDelta(a.stages[name], b.stages[name]) }

	bs, rt := summarize(w.batch), summarize(w.rt)
	cpu := secs(w.procA.cpu - w.procB.cpu)
	m["workload.samples_per_s"] = w.samplesPerS
	m["workload.batch_p50_ms"] = w.batchP50Ms
	m["workload.batch_p99_ms"] = ms(bs.tail)
	m["workload.failed_share"] = ratio(float64(w.failed), float64(w.attempted))
	m["workload.cpu_s_per_wall_s"] = ratio(cpu, wall)
	m["trace.overhead_share"] = 1 - ratio(w.samplesPerS, ref.samplesPerS)

	m["rpc.client.round_trip_p50_us"] = us(rt.p50)
	m["rpc.client.round_trip_p99_us"] = us(rt.tail)
	m["rpc.client.verify_us_per_batch"] = us(ratio(float64(w.verifyNs), batches))
	m["rpc.client.retries"] = float64(w.retries)
	m["rpc.client.redials"] = float64(w.redial)

	req := stage(rpc.StageRequest)
	backend := stage(rpc.StageBackendFetch)
	m["rpc.server.request_p50_us"] = us(float64(req.P50()))
	m["rpc.server.request_p99_us"] = us(float64(req.P99()))
	m["rpc.server.policy_lock_hold_mean_us"] = us(float64(stage(rpc.StagePolicyLockHold).Mean()))
	m["rpc.server.local_hit_mean_us"] = us(float64(stage(rpc.StageLocalHit).Mean()))
	m["rpc.server.singleflight_wait_s"] = float64(stage(rpc.StageSingleflightWait).Sum) / 1e9
	m["rpc.server.backend_fetch_mean_us"] = us(float64(backend.Mean()))
	m["rpc.server.peer_rpc_batch_p50_us"] = us(float64(stage(rpc.StagePeerRPCBatch).P50()))
	m["rpc.server.dir_lookup_batch_p50_us"] = us(float64(stage(rpc.StageDirLookupBatch).P50()))
	m["rpc.server.prefetch_queue_wait_p50_ms"] = ms(float64(stage(rpc.StagePrefetchQueueWait).P50()))
	m["rpc.server.admission_wait_p99_us"] = us(float64(stage(rpc.StageAdmissionWait).P99()))
	// The backend stage also times the prefetch pool's reads, which no
	// request waits for; only the demand reads' share of it is request time.
	demand := float64(a.demand - b.demand)
	attributed := float64(backend.Sum) * ratio(demand, float64(backend.Count))
	for _, name := range requestStages {
		attributed += float64(stage(name).Sum)
	}
	if req.Sum > 0 {
		m["rpc.server.unattributed_share"] = 1 - attributed/float64(req.Sum)
	}
	// Means, not medians: the registry's log-spaced buckets place a
	// percentile only to within a bucket, while Sum/Count is exact.
	if req.Count > 0 && len(w.rt) > 0 {
		var sum int64
		for _, v := range w.rt {
			sum += v
		}
		m["rpc.server.wire_gap_us"] = us(float64(sum)/float64(len(w.rt))) - us(float64(req.Mean()))
	}
	misses := float64(a.m.Misses - b.m.Misses)
	m["rpc.server.coalesced_share"] = ratio(float64(a.serving.CoalescedMisses-b.serving.CoalescedMisses), misses)
	m["rpc.server.demand_fetches_per_sample"] = ratio(demand, samples)
	m["rpc.server.prefetch_in_time_share"] = ratio(float64(a.decision.PrefetchInTime-b.decision.PrefetchInTime),
		float64(a.decision.PrefetchIssued-b.decision.PrefetchIssued))
	m["rpc.server.prefetch_dropped"] = float64(a.decision.PrefetchDropped - b.decision.PrefetchDropped)
	m["rpc.server.payload_pins_per_sample"] = ratio(float64(a.serving.PayloadPins-b.serving.PayloadPins), samples)
	m["rpc.server.peer_rpcs_per_batch"] = ratio(float64(a.serving.PeerBatchRPCs-b.serving.PeerBatchRPCs), batches)
	m["rpc.server.shed"] = float64(a.shed - b.shed)
	m["rpc.server.expired"] = float64(a.expired - b.expired)

	gets := a.serving.BufferGets + a.serving.VecGets - b.serving.BufferGets - b.serving.VecGets
	news := a.serving.BufferAllocs + a.serving.VecAllocs - b.serving.BufferAllocs - b.serving.VecAllocs
	m["wire.pool_miss_share"] = ratio(float64(news), float64(gets))

	hits, subs := float64(a.m.Hits-b.m.Hits), float64(a.m.Substitutions-b.m.Substitutions)
	served := hits + subs + misses
	m["icache.hit_share"] = ratio(hits, served)
	m["icache.substitution_share"] = ratio(subs, served)
	m["icache.miss_share"] = ratio(misses, served)
	m["icache.evictions_per_s"] = ratio(float64(a.m.Evictions-b.m.Evictions), wall)
	useful := float64(a.m.LoaderUsefulBytes - b.m.LoaderUsefulBytes)
	m["icache.loader_useful_share"] = ratio(useful, useful+float64(a.m.LoaderWastedBytes-b.m.LoaderWastedBytes))

	fetches := float64(a.src.calls - b.src.calls)
	busy := float64(a.src.busyNs - b.src.busyNs)
	m["storage.fetch.calls_per_sample"] = ratio(fetches, samples)
	m["storage.fetch.mean_ms"] = ms(ratio(busy, fetches))
	m["storage.fetch.busy_s"] = busy / 1e9
	m["storage.fetch.max_concurrent"] = float64(a.src.peak)

	dirCalls, _, _ := a.dir.since(b.dir).total()
	m["dkv.calls"] = float64(dirCalls)

	m["process.cpu_us_per_sample"] = ratio(cpu*1e6, samples)
	m["process.syscalls_per_batch"] = ratio(float64(w.procA.syscalls-w.procB.syscalls), batches)
	m["process.allocs_per_batch"] = ratio(float64(w.procA.mallocs-w.procB.mallocs), batches)
	m["process.alloc_bytes_per_batch"] = ratio(float64(w.procA.allocBytes-w.procB.allocBytes), batches)
	m["process.gc_pause_ms"] = ms(float64(w.procA.gcPauseNs - w.procB.gcPauseNs))
	m["process.mutex_wait_s"] = w.procA.mutexWait - w.procB.mutexWait
	m["process.peak_rss_mb"] = float64(w.procA.peakRSSKB) / 1024

	for k, v := range w.extra {
		m[k] = v
	}
	return m
}
