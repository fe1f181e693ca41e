package dkv

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/trace"
	"icache/internal/transport/transporttest"
)

// startObsDirServer is startDirServer with the observability layer armed
// before Serve.
func startObsDirServer(t *testing.T) (string, *Directory, *obs.Registry, *trace.Recorder) {
	t.Helper()
	dir := NewDirectory()
	srv := NewDirServer(dir)
	reg := obs.NewRegistry()
	tracer := trace.NewRecorder(1 << 10)
	srv.EnableObs(reg, tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), dir, reg, tracer
}

func TestDirTracedLookup(t *testing.T) {
	addr, dir, reg, tracer := startObsDirServer(t)
	if !dir.Claim(7, 3) {
		t.Fatal("claim failed")
	}
	c := dialDir(t, addr)

	// A plain lookup and a traced lookup must return the same answer.
	node, ok, err := c.Lookup(7)
	if err != nil || !ok || node != 3 {
		t.Fatalf("Lookup = (%d, %v, %v)", node, ok, err)
	}
	ctx := obs.TraceCtx{ID: 0xfeed, Hop: 2}
	owners, err := c.LookupBatchCtx([]dataset.SampleID{7}, ctx, time.Time{})
	if err != nil || len(owners) != 1 || !owners[0].Found || owners[0].Node != 3 {
		t.Fatalf("LookupBatchCtx = (%v, %v)", owners, err)
	}
	// Miss through the envelope, too.
	owners, err = c.LookupBatchCtx([]dataset.SampleID{1234}, ctx, time.Time{})
	if err != nil || len(owners) != 1 || owners[0].Found {
		t.Fatalf("LookupBatchCtx(absent) = (%v, %v)", owners, err)
	}

	// The traced lookups (and only those) produced RPCRecv spans at the
	// carried hop, tagged with the inner opcode.
	var spans []trace.Event
	for _, e := range tracer.Snapshot() {
		if e.Kind.IsSpan() {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2 (one per traced lookup)", len(spans))
	}
	for _, sp := range spans {
		if sp.Kind != trace.KindRPCRecv {
			t.Fatalf("span kind %v", sp.Kind)
		}
		if sp.TraceID != 0xfeed || sp.Hop != 2 {
			t.Fatalf("span ctx = (%016x, %d), want (feed, 2)", sp.TraceID, sp.Hop)
		}
		if sp.Arg != opLookupBatch {
			t.Fatalf("span arg %d, want inner opcode %d", sp.Arg, opLookupBatch)
		}
	}

	// The per-request histogram counted every request (traced or not).
	var served uint64
	for _, ns := range reg.Snapshot() {
		if ns.Name == StageDirServe {
			served = ns.Snap.Count
		}
	}
	if served < 3 {
		t.Fatalf("dir_serve histogram count %d, want >= 3", served)
	}

	// A zero trace context degrades to the plain request.
	if _, err := c.LookupBatchCtx([]dataset.SampleID{7}, obs.TraceCtx{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// TestDirEnvelopeRejections: the directory handler sees envelope stacks
// accepted and rejected exactly as every handler on the transport does —
// both orders of trace and deadline, each at most once, mux outermost.
func TestDirEnvelopeRejections(t *testing.T) {
	srv := NewDirServer(NewDirectory())
	srv.EnableObs(obs.NewRegistry(), trace.NewRecorder(16))
	transporttest.EnvelopeRejections(t, srv.t)
}

// TestDirObsDisabledIsInert pins the nil-recorder contract: a server with
// no observability wiring serves traced envelopes correctly (the context
// is simply dropped) and records nothing.
func TestDirObsDisabledIsInert(t *testing.T) {
	dir := NewDirectory()
	if !dir.Claim(7, 3) {
		t.Fatal("claim failed")
	}
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := DialDir(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owners, err := c.LookupBatchCtx([]dataset.SampleID{7}, obs.TraceCtx{ID: 5, Hop: 1}, time.Time{})
	if err != nil || len(owners) != 1 || !owners[0].Found || owners[0].Node != 3 {
		t.Fatalf("LookupBatchCtx on plain server = (%v, %v)", owners, err)
	}
	if srv.ObsRegistry() != nil {
		t.Fatal("registry materialized on a plain server")
	}
}
