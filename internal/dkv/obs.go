package dkv

import (
	"net/http"
	"time"

	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// This file is the directory service's observability wiring: an opt-in
// per-request latency histogram on the server, and a span per traced request
// so a traced cache request's directory lookups appear in the cross-node hop
// chain. The trace context arrives in the transport's trace envelope.

// StageDirServe is the directory server's per-request serve stage; it
// becomes icache_stage_dir_serve_seconds on the Prometheus surface.
const StageDirServe = "dir_serve"

// dirObs is a DirServer's observability state.
type dirObs struct {
	reg   *obs.Registry
	serve *obs.Histogram

	tracer *trace.Recorder
	start  time.Time // trace-clock epoch (set at EnableObs)
}

// EnableObs arms the directory server's per-request latency histogram
// (reg) and span tracing (tracer). Either may be nil to leave that surface
// off. Must be called before Serve.
func (s *DirServer) EnableObs(reg *obs.Registry, tracer *trace.Recorder) {
	s.obs.reg = reg
	s.obs.serve = reg.Hist(StageDirServe)
	s.obs.tracer = tracer
	s.obs.start = time.Now()
}

// ObsRegistry reports the stage-histogram registry (nil when disabled).
func (s *DirServer) ObsRegistry() *obs.Registry { return s.obs.reg }

// DebugObsHandler serves the shared human-readable observability summary
// (per-stage latency table + trace-ring state) for /debug/obs.
func (s *DirServer) DebugObsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var ring *obs.RingStats
		if s.obs.tracer != nil {
			ring = &obs.RingStats{Retained: s.obs.tracer.Len(), Total: s.obs.tracer.Total()}
		}
		obs.WriteDebug(w, s.obs.reg, ring, 0)
	})
}

// serve answers one directory request (envelopes peeled by the transport). A
// request whose deadline budget is already spent is dropped, StatusExpired,
// without touching the directory: the budget is the sender's remaining time
// at encode and directory work is sub-millisecond, so arrival with nothing
// left is the only expired case worth answering.
func (s *DirServer) serve(w transport.Response, req []byte, ctx obs.TraceCtx, dl time.Time) error {
	if !dl.IsZero() && !time.Now().Before(dl) {
		s.observe(req[0], ctx, 0)
		return w.Expired()
	}
	return w.Reply(func(e *wire.Buffer) error {
		if s.obs.reg == nil && (s.obs.tracer == nil || !ctx.Valid()) {
			return s.dispatch(req, e)
		}
		t0 := time.Now()
		err := s.dispatch(req, e)
		s.observe(req[0], ctx, time.Since(t0))
		return err
	})
}

// observe records one request's serve time: the dir_serve histogram when
// armed, and a KindRPCRecv span at the received hop with Arg = the opcode
// when the request is traced.
func (s *DirServer) observe(op byte, ctx obs.TraceCtx, dur time.Duration) {
	s.obs.serve.Record(dur)
	if s.obs.tracer != nil && ctx.Valid() {
		s.obs.tracer.RecordSpan(time.Since(s.obs.start), trace.KindRPCRecv, 0, int64(op), ctx.ID, ctx.Hop, dur)
	}
}
