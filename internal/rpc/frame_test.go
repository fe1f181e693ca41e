package rpc

// Tests that enter the server the way a connection does: one request frame
// handed to the transport's frame handler, the response read back off an
// in-memory connection.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/wire"
)

// dispatch runs one request through the server's frame handler, in the mux
// envelope a client sends it in, and returns the answer inside the echo.
func (s *Server) dispatch(req []byte) []byte { return transporttest.Dispatch(s.t, req) }

// TestEnvelopeRejections: the cache handler sees envelope stacks accepted and
// rejected exactly as every handler on the transport does.
func TestEnvelopeRejections(t *testing.T) {
	transporttest.EnvelopeRejections(t, newUnstartedServer(t, nil).t)
}

// TestNoOpcodeCollidesWithTheTransport: a cache opcode equal to a reserved
// one would never reach the handler.
func TestNoOpcodeCollidesWithTheTransport(t *testing.T) {
	for name, op := range map[string]byte{
		"opGetBatch": opGetBatch, "opUpdateImportance": opUpdateImportance, "opStats": opStats,
		"opBeginEpoch": opBeginEpoch, "opPeerGetBatch": opPeerGetBatch,
		"opEpochPlan": opEpochPlan, "opPlanPreplace": opPlanPreplace,
	} {
		switch op {
		case transport.OpPing, transport.OpTraced, transport.OpMux, transport.OpDeadline:
			t.Errorf("%s = %d is reserved by the transport", name, op)
		}
	}
}

// TestRetiredOpcodeRefused: opcode 6 was the per-sample peer read. However it
// arrives it is answered as an unknown opcode — a peer built before the
// batched plane degrades to its backend (TestMalformedFrameRejected has the
// connection serving on afterwards).
func TestRetiredOpcodeRefused(t *testing.T) {
	srv := newUnstartedServer(t, nil)
	old := []byte{6, 0, 0, 0, 0, 0, 0, 0, 9}
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"plain", old},
		{"deadline", transport.WrapDeadline(time.Minute, old)},
		{"traced", transport.WrapTraced(old, obs.TraceCtx{ID: 7, Hop: 1})},
		{"deadline-traced", transport.WrapDeadline(time.Minute, transport.WrapTraced(old, obs.TraceCtx{ID: 7, Hop: 1}))},
	} {
		resp := srv.dispatch(tc.req)
		if len(resp) == 0 || resp[0] != transport.StatusErr || !strings.Contains(string(resp[1:]), "unknown opcode 6") {
			t.Errorf("%s: opcode 6 answered %q, want StatusErr \"unknown opcode 6\"", tc.name, resp)
		}
	}
}

// TestTraceParity holds a traced GetBatch to the untraced one: over a fully
// resident hot set, every envelope composition is served by pinning — one
// pin per payload, no copy — returns the same samples, and leaves exactly
// one rpc_recv span at the carried hop plus a latency exemplar, both under
// the client's trace ID. (When traced requests took a copying path they
// pinned nothing, so traces described code untraced traffic never ran.)
func TestTraceParity(t *testing.T) {
	srv, addr, _, tracer := startObsServer(t)
	c := dial(t, addr)
	ids := hotIDs(t, c, 16)
	if _, err := c.GetBatch(ids); err != nil { // admits the hot set
		t.Fatal(err)
	}
	want, err := c.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	wantPins := int64(0)
	for _, s := range want {
		if len(s.Payload) > 0 {
			wantPins++
		}
	}

	get := encodeGetBatchRequest(ids)
	for i, tc := range []struct {
		name string
		wrap func(obs.TraceCtx) []byte
	}{
		{"plain", func(ctx obs.TraceCtx) []byte { return transport.WrapTraced(get, ctx) }},
		{"deadline-outer", func(ctx obs.TraceCtx) []byte {
			return transport.WrapDeadline(time.Minute, transport.WrapTraced(get, ctx))
		}},
		{"trace-outer", func(ctx obs.TraceCtx) []byte {
			return transport.WrapTraced(transport.WrapDeadline(time.Minute, get), ctx)
		}},
	} {
		ctx := obs.TraceCtx{ID: uint64(0xABC0 + i), Hop: 1}
		pins0 := srv.ServingStats().PayloadPins
		resp := srv.dispatch(tc.wrap(ctx))
		if got := srv.ServingStats().PayloadPins - pins0; got != wantPins {
			t.Errorf("%s: traced request took %d payload pins, want %d (one per resident payload)", tc.name, got, wantPins)
		}
		if !bytes.Equal(resp, encodeGetBatchResponse(want)) {
			t.Errorf("%s: traced response differs from the untraced samples", tc.name)
		}
		var recv []trace.Event
		for _, ev := range tracer.Snapshot() {
			if ev.Kind == trace.KindRPCRecv && ev.TraceID == ctx.ID {
				recv = append(recv, ev)
			}
		}
		if len(recv) != 1 || recv[0].Hop != 1 || recv[0].Arg != int64(len(ids)) {
			t.Errorf("%s: rpc_recv spans under trace %x = %+v, want one at hop 1 with arg %d", tc.name, ctx.ID, recv, len(ids))
		}
		found := false
		for _, ex := range srv.obs.exemplars.Snapshot() {
			found = found || ex.Trace == ctx.ID
		}
		if !found {
			t.Errorf("%s: no latency exemplar carries trace %x", tc.name, ctx.ID)
		}
	}
}

// TestSlowRequestLogNamesTrace: the slow-request log is written by the one
// serve path, so a traced request's line carries its trace ID and hop.
func TestSlowRequestLogNamesTrace(t *testing.T) {
	srv := newUnstartedServer(t, nil)
	var lines []string
	srv.Logf = func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }
	srv.SetSlowRequestLog(time.Nanosecond, 0)
	srv.dispatch(transport.WrapTraced(encodeGetBatchRequest([]dataset.SampleID{1, 2}), obs.TraceCtx{ID: 0xFEED, Hop: 1}))
	if len(lines) != 1 || !strings.Contains(lines[0], "trace=000000000000feed hop=1") {
		t.Fatalf("slow-request log = %q, want one line naming trace feed at hop 1", lines)
	}
}

// TestStatsResponseLayout pins the opStats answer: the status byte and seven
// i64 counters, DemandFetches last — always sent, once.
func TestStatsResponseLayout(t *testing.T) {
	srv := newUnstartedServer(t, nil)
	srv.dispatch(encodeGetBatchRequest([]dataset.SampleID{1, 2, 3})) // three cold misses
	resp := srv.dispatch([]byte{opStats})
	if len(resp) != 1+7*8 || resp[0] != transport.StatusOK {
		t.Fatalf("opStats answered %d bytes (status %d), want %d with StatusOK", len(resp), resp[0], 1+7*8)
	}
	st, err := decodeStatsResponse(wire.NewReader(resp[1:]))
	if err != nil || st.DemandFetches != 3 || st.DemandFetches != srv.DemandFetches() {
		t.Fatalf("decoded %+v (%v), want DemandFetches 3", st, err)
	}
}
