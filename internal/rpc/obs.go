package rpc

// This file is the rpc layer's observability wiring: per-stage latency
// histograms (internal/obs), cross-node request tracing (a compact trace
// context carried in an optional wire envelope, recorded as span events
// into the internal/trace ring), and a rate-limited slow-request log.
//
// Everything is opt-in and follows the nil-recorder pattern: a server or
// client with no registry/tracer configured takes one nil check per stage
// and records nothing — BenchmarkObsOverhead in bench_test.go pins that
// the disabled path costs ~nothing and the enabled path stays within a few
// percent.
//
// # Trace context
//
// A traced request travels in the transport's trace envelope
// (transport.OpTraced), which carries the hop the *receiver* occupies in the
// chain: the originating client holds hop 0 and sends hop 1; a cache node
// that received hop h forwards peer/directory calls carrying hop h+1
// (TraceCtx.Next). The transport peels it and hands the handler the context.
//
// Span recording convention (see trace.Kind):
//
//	KindRPCSend  at the sender's own hop, Dur = full round trip.
//	             Arg 0 = client GetBatch / peer read, Arg 1 = directory call.
//	KindRPCRecv  at the receiver's hop, Dur = serve time (for the batch
//	             reads: ids decoded → response written).
//	             Arg = batch size (GetBatch, PeerGetBatch).
//	KindBackend  at the fetching node's hop, Dur = storage service time.

import (
	"io"
	"net/http"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
)

// Stage names registered by the serving path. Every stage becomes an
// icache_stage_<name>_seconds histogram on the Prometheus surface.
const (
	// StageRequest is the whole GetBatch serve: ids decoded → response
	// written (a muxed request's wait for a dispatch worker is admission_wait,
	// not part of it).
	StageRequest = "request"
	// StagePolicyLockHold is the policyMu critical section of GetBatch.
	StagePolicyLockHold = "policy_lock_hold"
	// StageLocalHit is a payload-store hit (local H/L-cache serve).
	StageLocalHit = "local_hit"
	// StageSingleflightWait is time spent waiting on another goroutine's
	// in-flight fetch of the same sample.
	StageSingleflightWait = "singleflight_wait"
	// StageBackendFetch is a backend-storage read on the miss path.
	StageBackendFetch = "backend_fetch"
	// StageBackendSlotWait is the time one backend read waited for a slot of
	// the server-wide read budget (backendReadBudget) before it was issued.
	StageBackendSlotWait = "backend_slot_wait"
	// StageMissGather is one request's whole miss resolution: wall time from
	// its first led singleflight key to the last Finish (one record per
	// request that led a miss) — slot waits plus reads. Backend reads inside
	// it overlap, so per request Σ backend_fetch may exceed it — this stage,
	// not that sum, is what adds up to the request.
	StageMissGather = "miss_gather"
	// StagePeerRPCBatch is one scatter-gather opPeerGetBatch round trip
	// (many samples per RPC), measured at the sender.
	StagePeerRPCBatch = "peer_rpc_batch"
	// StageDirLookupBatch is one multi-lookup directory round trip
	// (LookupBatch), measured at the sender.
	StageDirLookupBatch = "dir_lookup_batch"
	// StagePrefetchQueueWait is time a plan entry sat on the prefetch queue
	// before a worker picked it up.
	StagePrefetchQueueWait = "prefetch_queue_wait"
	// StageClientRoundTrip is a client-side request round trip (retries
	// included), recorded by Client when observability is enabled.
	StageClientRoundTrip = "client_round_trip"
	// StageSubstitutionScan is the cache policy's substitute-selection scan,
	// recorded by icache.Server (see SetSubstitutionScanHist).
	StageSubstitutionScan = "substitution_scan"
	// StageAdmissionWait is time an admitted request waited for a dispatch
	// slot — the queue-delay signal the admission gate steers on.
	StageAdmissionWait = "admission_wait"
	// StageDeadlineRemaining is the budget left when a deadline-carrying
	// request reached the serve point (0 = arrived already expired).
	StageDeadlineRemaining = "deadline_remaining"
)

// Stages of the retired per-sample peer read: unrecorded, kept because benchmark/metrics.go names them.
const (
	StagePeerRPC   = "peer_rpc"
	StageDirLookup = "dir_lookup"
)

// Span Arg values for KindRPCSend.
const (
	spanArgPeer = 0 // client GetBatch / peer read
	spanArgDir  = 1 // directory call
)

// serverObs is a Server's observability state: the stage-histogram
// registry (nil = histograms off), pre-resolved per-stage histograms so
// the hot path never takes the registry lock, the span tracer (nil =
// tracing off), and the slow-request log configuration.
type serverObs struct {
	reg *obs.Registry

	request, policyLock, localHit, sfWait *obs.Histogram
	backend, slotWait, prefetchWt         *obs.Histogram
	peerBatch, dirBatch, missGather       *obs.Histogram
	deadlineRem                           *obs.Histogram

	tracer *trace.Recorder

	// exemplars pins, per request-latency bucket, the last traced request
	// that landed there (armed with the histograms; nil = off).
	exemplars *obs.Exemplars

	slowThresh time.Duration
	slowLim    *obs.RateLimiter
}

// histsOn reports whether stage histograms are recording.
func (o *serverObs) histsOn() bool { return o.reg != nil }

// tracing reports whether span recording applies to this request.
func (o *serverObs) tracing(ctx obs.TraceCtx) bool { return o.tracer != nil && ctx.Valid() }

// EnableObs wires per-stage latency histograms (reg) and span tracing
// (tracer) into the server. Either may be nil to leave that surface off.
// Must be called before Serve; the fields are read without synchronization
// on the serving path.
func (s *Server) EnableObs(reg *obs.Registry, tracer *trace.Recorder) {
	s.obs.reg = reg
	s.obs.tracer = tracer
	s.obs.request = reg.Hist(StageRequest)
	s.obs.policyLock = reg.Hist(StagePolicyLockHold)
	s.obs.localHit = reg.Hist(StageLocalHit)
	s.obs.sfWait = reg.Hist(StageSingleflightWait)
	s.obs.backend = reg.Hist(StageBackendFetch)
	s.obs.slotWait = reg.Hist(StageBackendSlotWait)
	s.obs.missGather = reg.Hist(StageMissGather)
	s.obs.peerBatch = reg.Hist(StagePeerRPCBatch)
	s.obs.dirBatch = reg.Hist(StageDirLookupBatch)
	s.obs.prefetchWt = reg.Hist(StagePrefetchQueueWait)
	s.t.AdmissionWait = reg.Hist(StageAdmissionWait)
	s.obs.deadlineRem = reg.Hist(StageDeadlineRemaining)
	s.obs.exemplars = &obs.Exemplars{}
	s.cache.SetSubstitutionScanHist(reg.Hist(StageSubstitutionScan))
}

// ObsRegistry reports the stage-histogram registry (nil when disabled).
func (s *Server) ObsRegistry() *obs.Registry { return s.obs.reg }

// SetSlowRequestLog arms the slow-request log: GetBatch serves taking
// longer than threshold are logged through Logf, at most one line per
// minInterval (minInterval <= 0 disables rate limiting; threshold <= 0
// disables the log). Must be called before Serve.
func (s *Server) SetSlowRequestLog(threshold, minInterval time.Duration) {
	s.obs.slowThresh = threshold
	s.obs.slowLim = obs.NewRateLimiter(minInterval)
}

// span records one span event under ctx (no-op when untraced or no tracer).
func (s *Server) span(kind trace.Kind, id dataset.SampleID, arg int64, ctx obs.TraceCtx, dur time.Duration) {
	if !s.obs.tracing(ctx) {
		return
	}
	s.obs.tracer.RecordSpan(time.Duration(s.now()), kind, id, arg, ctx.ID, ctx.Hop, dur)
}

// maybeLogSlow emits the rate-limited slow-request log line.
func (s *Server) maybeLogSlow(ctx obs.TraceCtx, batch int, dur time.Duration) {
	if s.obs.slowThresh <= 0 || dur < s.obs.slowThresh || s.Logf == nil {
		return
	}
	if !s.obs.slowLim.Allow(time.Now()) {
		return
	}
	if ctx.Valid() {
		s.Logf("rpc: slow request: batch=%d dur=%s threshold=%s trace=%016x hop=%d",
			batch, dur, s.obs.slowThresh, ctx.ID, ctx.Hop)
		return
	}
	s.Logf("rpc: slow request: batch=%d dur=%s threshold=%s", batch, dur, s.obs.slowThresh)
}

// EnableObs wires client-side observability: the round-trip histogram from
// reg (StageClientRoundTrip), span recording into tracer, and 1-in-N
// request tracing via sampler. Any argument may be nil. Must be called
// right after Dial, before the client is used (the fields are read without
// synchronization on the request path).
func (c *Client) EnableObs(reg *obs.Registry, tracer *trace.Recorder, sampler *obs.Sampler) {
	c.rtHist = reg.Hist(StageClientRoundTrip)
	c.tracer = tracer
	c.sampler = sampler
}

// beginTrace decides whether this request is traced: the sampler fires and
// a tracer exists. The returned context is at hop 0 (the client's own
// position); the wire envelope carries Next().
func (c *Client) beginTrace() obs.TraceCtx {
	if c.tracer == nil || !c.sampler.Sample() {
		return obs.TraceCtx{}
	}
	return obs.TraceCtx{ID: obs.NewTraceID()}
}

// DebugObsHandler serves a human-readable observability summary: the
// per-stage latency table (count, p50/p95/p99, max) and the trace ring's
// state. Intended for /debug/obs next to net/http/pprof.
func (s *Server) DebugObsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeObsDebug(w, s.obs.reg, s.obs.tracer, s.obs.slowThresh)
	})
}

// writeObsDebug renders the debug summary via the shared obs.WriteDebug
// renderer (icache-dkv uses the same renderer through dkv.DirServer).
func writeObsDebug(w io.Writer, reg *obs.Registry, tracer *trace.Recorder, slowThresh time.Duration) {
	var ring *obs.RingStats
	if tracer != nil {
		ring = &obs.RingStats{Retained: tracer.Len(), Total: tracer.Total()}
	}
	obs.WriteDebug(w, reg, ring, slowThresh)
}
