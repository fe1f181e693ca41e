package rpc

// Tests that enter the server the way a connection does: one request frame
// handed to serveFrame, the response read back off an in-memory connection.

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/wire"
)

// captureConn is the server's end of an in-memory connection: it records
// what the server writes (a dispatch goroutine may be the writer).
type captureConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// dispatch runs one request frame through serveFrame — the handler every
// connection's read loop calls — and returns the payload of the one response
// frame it wrote. A muxed request answers from its dispatch goroutine, so
// the connection's handlers are drained first.
func (s *Server) dispatch(req []byte) []byte {
	conn := &captureConn{}
	cs := &muxConnState{conn: conn, sem: make(chan struct{}, muxServerInflight)}
	if err := s.serveFrame(cs, req); err != nil {
		panic(fmt.Sprintf("serveFrame over an in-memory connection: %v", err))
	}
	cs.wg.Wait()
	resp, err := wire.ReadFrame(&conn.buf)
	if err != nil || conn.buf.Len() != 0 {
		panic(fmt.Sprintf("request %x: want exactly one response frame, got err=%v with %d bytes left over", req, err, conn.buf.Len()))
	}
	return resp
}

// muxWrap puts req in an opMuxReq envelope.
func muxWrap(id uint32, req []byte) []byte {
	var e buffer
	e.u8(opMuxReq)
	e.u32(id)
	e.bytesRaw(req)
	return e.payload()
}

// TestEnvelopeRejections pins the in-band answers to malformed envelope
// stacks, bare and inside a mux envelope: each envelope may appear once.
func TestEnvelopeRejections(t *testing.T) {
	srv := newUnstartedServer(t, nil, 0)
	ping := []byte{opPing}
	tctx := obs.TraceCtx{ID: 9, Hop: 1}
	for _, tc := range []struct {
		name string
		req  []byte
		want string
	}{
		{"nested trace", WrapTraced(WrapTraced(ping, tctx), tctx), "rpc: nested trace envelope"},
		{"nested trace around deadline", WrapTraced(encodeDeadlineRequest(time.Minute, WrapTraced(ping, tctx)), tctx), "rpc: nested trace envelope"},
		{"zero trace id", WrapTraced(ping, obs.TraceCtx{Hop: 1}), "rpc: trace envelope with zero trace id"},
		{"nested deadline", encodeDeadlineRequest(time.Minute, encodeDeadlineRequest(time.Minute, ping)), "rpc: nested deadline envelope"},
		{"nested deadline around trace", encodeDeadlineRequest(time.Minute, WrapTraced(encodeDeadlineRequest(time.Minute, ping), tctx)), "rpc: nested deadline envelope"},
		{"non-positive budget", []byte{opDeadline, 0, 0, 0, 0, 0, 0, 0, 0, opPing}, "rpc: non-positive deadline budget 0"},
		{"mux inside mux", muxWrap(2, ping), "rpc: unknown opcode 9"},
	} {
		for _, muxed := range []bool{false, true} {
			req, name := tc.req, tc.name
			if muxed || tc.name == "mux inside mux" {
				req, name = muxWrap(7, req), name+"/muxed"
			}
			resp := srv.dispatch(req)
			if req[0] == opMuxReq {
				if !bytes.HasPrefix(resp, req[:muxHeaderLen]) {
					t.Fatalf("%s: response %x does not echo the mux envelope", name, resp)
				}
				resp = resp[muxHeaderLen:]
			}
			d := newReader(resp)
			if st, msg := d.u8(), d.str(); st != statusErr || msg != tc.want {
				t.Errorf("%s: answered status %d %q, want statusErr %q", name, st, msg, tc.want)
			}
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
		{"plain", func(ctx obs.TraceCtx) []byte { return WrapTraced(get, ctx) }},
		{"deadline-outer", func(ctx obs.TraceCtx) []byte { return encodeDeadlineRequest(time.Minute, WrapTraced(get, ctx)) }},
		{"trace-outer", func(ctx obs.TraceCtx) []byte { return WrapTraced(encodeDeadlineRequest(time.Minute, get), ctx) }},
		{"muxed", func(ctx obs.TraceCtx) []byte { return muxWrap(3, WrapTraced(get, ctx)) }},
	} {
		ctx := obs.TraceCtx{ID: uint64(0xABC0 + i), Hop: 1}
		pins0 := srv.ServingStats().PayloadPins
		resp := srv.dispatch(tc.wrap(ctx))
		if tc.name == "muxed" {
			resp = resp[muxHeaderLen:]
		}
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
	srv := newUnstartedServer(t, nil, 0)
	var lines []string
	srv.Logf = func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }
	srv.SetSlowRequestLog(time.Nanosecond, 0)
	srv.dispatch(WrapTraced(encodeGetBatchRequest([]dataset.SampleID{1, 2}), obs.TraceCtx{ID: 0xFEED, Hop: 1}))
	if len(lines) != 1 || !strings.Contains(lines[0], "trace=000000000000feed hop=1") {
		t.Fatalf("slow-request log = %q, want one line naming trace feed at hop 1", lines)
	}
}

// TestStatsResponseLayout pins the opStats answer: the status byte and seven
// i64 counters, DemandFetches last — always sent, once.
func TestStatsResponseLayout(t *testing.T) {
	srv := newUnstartedServer(t, nil, 0)
	srv.dispatch(encodeGetBatchRequest([]dataset.SampleID{1, 2, 3})) // three cold misses
	resp := srv.dispatch([]byte{opStats})
	if len(resp) != 1+7*8 || resp[0] != statusOK {
		t.Fatalf("opStats answered %d bytes (status %d), want %d with statusOK", len(resp), resp[0], 1+7*8)
	}
	st, err := decodeStatsResponse(newReader(resp[1:]))
	if err != nil || st.DemandFetches != 3 || st.DemandFetches != srv.DemandFetches() {
		t.Fatalf("decoded %+v (%v), want DemandFetches 3", st, err)
	}
}
