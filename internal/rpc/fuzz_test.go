package rpc

import (
	"bytes"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/wire"
)

// FuzzServerDispatch throws arbitrary requests at the server's one frame
// handler (the transport's, over an in-memory connection, each in the mux
// envelope a client sends): it must always answer (or error-answer) with
// exactly one frame inside that envelope and never panic — a malformed
// client must not be able to take the cache service down. A mux envelope
// inside the mux envelope must be error-answered, and whenever the input is
// a well-formed GetBatch that the server serves, the bytes its vectored path
// wrote must equal the flat reference encoding of the served samples.
func FuzzServerDispatch(f *testing.F) {
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		f.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		f.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil

	// Seed with every opcode, well-formed and truncated.
	f.Add([]byte{})
	f.Add([]byte{transport.OpPing})
	f.Add([]byte{opGetBatch})
	f.Add([]byte{opGetBatch, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{opUpdateImportance, 0, 0, 0, 1})
	f.Add([]byte{opBeginEpoch, 0, 0, 0, 0})
	f.Add([]byte{opStats})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 9}) // the retired opPeerGet: refused
	f.Add([]byte{0xFF, 0x01, 0x02})
	f.Add(encodeGetBatchRequest([]dataset.SampleID{0, 1, 2}))
	// Batched peer reads: well-formed, truncated id list, and an absurd
	// count that must trip the "unreasonable batch size" guard instead of
	// allocating gigabytes.
	f.Add(encodePeerGetBatchRequest([]dataset.SampleID{0, 1, 2}))
	f.Add([]byte{opPeerGetBatch, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{opPeerGetBatch, 0xFF, 0xFF, 0xFF, 0xFF})
	// Mux envelopes inside the one every request arrives in (error-answered,
	// never dispatched): around a ping, around a GetBatch, two deep; a
	// truncated header (an unknown opcode); and a ping carrying the
	// capability word clients used to open a connection with.
	f.Add(transporttest.MuxWrap(1, []byte{transport.OpPing}))
	f.Add(transporttest.MuxWrap(7, encodeGetBatchRequest([]dataset.SampleID{0, 1, 2})))
	f.Add(transporttest.MuxWrap(1, transporttest.MuxWrap(2, []byte{transport.OpPing})))
	f.Add([]byte{transport.OpMux, 0, 0, 0})
	f.Add([]byte{transport.OpPing, 0, 0, 0, 1})
	// Directory-replica frames (dkv opcodes 12/13: ring-view exchange and
	// shard hand-off) aimed at the cache port by a misconfigured replica:
	// unknown opcodes here, must error-answer rather than hang or panic.
	f.Add([]byte{12,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 0, 0, 2, // n
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{13, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 16})
	f.Add([]byte{12})
	f.Add([]byte{13, 0xFF, 0xFF, 0xFF, 0xFF})
	// Deadline envelopes (op 10): a generous budget around a ping, a spent
	// budget (must not fetch), a nested envelope (must
	// error), a truncated header, and both compositions with the trace
	// envelope — trace-outer/deadline-inner and deadline-outer/trace-inner.
	f.Add(transport.WrapDeadline(time.Minute, []byte{transport.OpPing}))
	f.Add([]byte{transport.OpDeadline, 0, 0, 0, 0, 0, 0, 0, 0, transport.OpPing})
	f.Add(transport.WrapDeadline(time.Minute, transport.WrapDeadline(time.Minute, []byte{transport.OpPing})))
	f.Add([]byte{transport.OpDeadline, 0, 0, 0, 1})
	f.Add(transport.WrapTraced(transport.WrapDeadline(time.Minute, encodeGetBatchRequest([]dataset.SampleID{0, 1})), obs.TraceCtx{ID: 9, Hop: 1}))
	f.Add(transport.WrapDeadline(time.Minute, transport.WrapTraced(encodeGetBatchRequest([]dataset.SampleID{0, 1}), obs.TraceCtx{ID: 9, Hop: 1})))
	f.Add(transport.WrapDeadline(time.Minute, transport.WrapTraced(encodePeerGetBatchRequest([]dataset.SampleID{0, 1}), obs.TraceCtx{ID: 9, Hop: 2})))

	f.Fuzz(func(t *testing.T, req []byte) {
		resp := srv.dispatch(req)
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		if len(req) > 0 && req[0] == transport.OpMux && resp[0] != transport.StatusErr {
			t.Fatalf("mux envelope inside a mux envelope answered %x, want StatusErr", resp)
		}
		switch resp[0] {
		case transport.StatusOK, transport.StatusErr, transport.StatusExpired:
		case transport.StatusRetryAfter:
			t.Fatalf("retry-after with no admission gate installed")
		default:
			t.Fatalf("response status %d", resp[0])
		}

		inner := peelForTest(req)
		if len(inner) == 0 || inner[0] != opGetBatch || resp[0] != transport.StatusOK {
			return
		}
		ids, err := decodeGetBatchRequest(wire.NewReader(inner[1:]))
		if err != nil {
			t.Fatalf("server served a GetBatch whose ids do not decode: %v", err)
		}
		served, err := decodeGetBatchResponseInto(wire.NewReader(resp[1:]), nil)
		if err != nil || len(served) != len(ids) {
			t.Fatalf("%d ids answered with %d samples (%v)", len(ids), len(served), err)
		}
		ref := make([]Sample, len(served))
		for i, s := range served {
			ref[i] = Sample{ID: s.ID, Payload: spec.Payload(s.ID)}
		}
		if !bytes.Equal(resp, encodeGetBatchResponse(ref)) {
			t.Fatalf("vectored response for ids %v differs from the flat reference encoding", ids)
		}
	})
}

// peelForTest strips the deadline and trace envelopes from a request the
// server has answered StatusOK (so each is well-formed and appears once).
func peelForTest(p []byte) []byte {
	for {
		switch {
		case len(p) >= 9 && p[0] == transport.OpDeadline:
			p = p[9:]
		case len(p) >= 10 && p[0] == transport.OpTraced:
			p = p[10:]
		default:
			return p
		}
	}
}
