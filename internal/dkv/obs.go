package dkv

import (
	"errors"
	"net/http"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/wire"
)

// This file is the directory service's observability wiring, mirroring the
// rpc layer's: an opt-in per-request latency histogram on the server, and
// the same compact trace envelope so a traced cache request's directory
// lookups appear in the cross-node hop chain.
//
// The envelope is structurally identical to the rpc layer's (opcode, then
// i64 trace ID, u8 receiver hop, raw inner request) but uses this
// protocol's own opcode space. Nested envelopes are rejected.

// opTraced wraps any directory request in a trace-context envelope.
const opTraced = 10

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

func (o *dirObs) histsOn() bool { return o.reg != nil }

func (o *dirObs) tracing(ctx obs.TraceCtx) bool { return o.tracer != nil && ctx.Valid() }

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

// dispatchCtx unwraps an optional trace envelope, dispatches the inner
// request, and records the serve time (histogram always when enabled; a
// KindRPCRecv span at the received hop with Arg = inner opcode when the
// request is traced).
func (s *DirServer) dispatchCtx(req []byte, e *wire.Buffer, ctx obs.TraceCtx) {
	if len(req) > 0 && req[0] == opTraced {
		if ctx.Valid() {
			dirError(e, errors.New("dkv: nested trace envelope"))
			return
		}
		d := wire.NewReader(req)
		d.U8() // opTraced
		id := uint64(d.I64())
		hop := d.U8()
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		if id == 0 {
			dirError(e, errors.New("dkv: zero trace id"))
			return
		}
		s.dispatchCtx(d.B[d.Off:], e, obs.TraceCtx{ID: id, Hop: hop})
		return
	}
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	s.dispatchInto(req, e)
	if measure {
		dur := time.Since(t0)
		s.obs.serve.Record(dur)
		if s.obs.tracing(ctx) {
			op := int64(0)
			if len(req) > 0 {
				op = int64(req[0])
			}
			s.obs.tracer.RecordSpan(time.Since(s.obs.start), trace.KindRPCRecv, 0, op, ctx.ID, ctx.Hop, dur)
		}
	}
}

// LookupTraced is Lookup carrying a trace context addressed to the
// directory server (the caller passes its own context's Next()). A zero
// context sends the plain request. It implements the optional interface
// the rpc layer probes for when forwarding traced directory lookups.
func (c *DirClient) LookupTraced(id dataset.SampleID, ctx obs.TraceCtx) (NodeID, bool, error) {
	if !ctx.Valid() {
		return c.Lookup(id)
	}
	e := wire.GetBuffer()
	e.U8(opTraced)
	e.I64(int64(ctx.ID))
	e.U8(ctx.Hop)
	e.U8(opLookup)
	e.I64(int64(id))
	d, err := c.roundTrip(e)
	if err != nil {
		return 0, false, err
	}
	if d.U8() == 0 {
		return 0, false, d.Err
	}
	return NodeID(d.I64()), true, d.Err
}

// LookupBatchTraced is LookupBatch carrying a trace context addressed to
// the directory server, so a traced cache request's ONE batched ownership
// lookup appears in the cross-node hop chain just like the per-sample
// lookups it replaced. A zero context sends the plain request. It
// implements the optional interface the rpc layer probes for when
// forwarding traced batched directory lookups.
func (c *DirClient) LookupBatchTraced(ids []dataset.SampleID, ctx obs.TraceCtx) ([]Owner, error) {
	if !ctx.Valid() {
		return c.LookupBatch(ids)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	e := wire.GetBuffer()
	e.U8(opTraced)
	e.I64(int64(ctx.ID))
	e.U8(ctx.Hop)
	e.U8(opLookupBatch)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
	d, err := c.roundTrip(e)
	if err != nil {
		return nil, err
	}
	return decodeLookupBatchResponse(d, len(ids))
}
