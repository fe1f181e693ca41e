package dkv

// FuzzDirDispatch throws arbitrary request frames at the directory service
// the way a connection does — through the transport's frame handler, like
// FuzzServerDispatch does for the cache service — including the membership
// opcodes added for node lifecycle, asserting the malformed-client contract:
// every request, sent in a mux envelope as a client sends it, gets exactly
// one status-framed response inside that envelope, the retired per-id
// opcodes (1, 2 and 3) are answered as unknown, and nothing panics. A broken
// cache node (or an attacker on the directory port) must not be able to take
// the shared directory down.

import (
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
)

func FuzzDirDispatch(f *testing.F) {
	// Seeds: every opcode well-formed, truncated operand forms, and garbage.
	f.Add([]byte{})
	// The retired per-id lookup (1), claim (2) and release (3): answered as
	// unknown.
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2})
	// Ownership frames: well-formed (node 2 claims 9, then releases 7), a
	// truncated entry, an unknown entry op, a count above MaxOwnBatch, and a
	// count of 0. A rejected frame must change nothing.
	f.Add([]byte{opOwnBatch, 0, 0, 0, 2,
		ownClaim, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2,
		ownRelease, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{opOwnBatch, 0, 0, 0, 2, ownClaim, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2, ownRelease, 0, 0, 0})
	f.Add([]byte{opOwnBatch, 0, 0, 0, 2,
		ownRelease, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2,
		9, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{opOwnBatch, 0, 0, 0x10, 0x01})
	f.Add([]byte{opOwnBatch, 0, 0, 0, 0})
	f.Add([]byte{opLen})
	f.Add([]byte{opRegister, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 84, 11, 228, 0})
	f.Add([]byte{opRegister, 0, 0, 0, 0, 0, 0, 0, 2, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{opRegister, 1})
	f.Add([]byte{opHeartbeat, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{opHeartbeat})
	f.Add([]byte{opListNodes})
	f.Add([]byte{opOwnedBy, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 16})
	f.Add([]byte{opOwnedBy, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{opPurgeDead, 0, 0, 0, 0})
	f.Add([]byte{opPurgeDead, 255, 255, 255, 255})
	// Multi-lookup: well-formed (one owned id, one absent), truncated id
	// list, and an absurd count that must trip the "unreasonable batch
	// size" guard instead of allocating gigabytes.
	f.Add([]byte{opLookupBatch, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{opLookupBatch, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{opLookupBatch, 0xFF, 0xFF, 0xFF, 0xFF})
	// Ring-view exchange: well-formed (sender 1 offers epoch 2 over replicas
	// {0,1}), truncated replica list, and an absurd ring size that must trip
	// the "unreasonable ring size" guard.
	f.Add([]byte{opRingView,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 0, 0, 2, // n
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{opRingView, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2})
	f.Add([]byte{opRingView, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{opRingView})
	// Shard hand-off: well-formed (sender 1 pushes epoch 3 over {1} with a
	// sweep cap), missing cap, truncated.
	f.Add([]byte{opHandoff,
		0, 0, 0, 0, 0, 0, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 0, 3, // epoch
		0, 0, 0, 1, // n
		0, 0, 0, 0, 0, 0, 0, 1, // replica 1
		0, 0, 0, 16}) // max
	f.Add([]byte{opHandoff, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{opHandoff, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0x01, 0x02})
	// Deadline envelopes: a generous budget around a lookup, a zero budget
	// and a nested envelope (must error), a truncated header, and an empty
	// inner.
	const opDeadline = transport.OpDeadline
	f.Add([]byte{opDeadline,
		0, 0, 0, 0, 59, 154, 202, 0, // ~1s budget
		opLookupBatch, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{opDeadline, 0, 0, 0, 0, 0, 0, 0, 0, opLookupBatch, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{opDeadline, 0, 0, 0, 0, 59, 154, 202, 0, opDeadline, 0, 0, 0, 0, 59, 154, 202, 0, opLookupBatch})
	f.Add([]byte{opDeadline, 0, 0, 0, 1})
	f.Add([]byte{opDeadline, 0, 0, 0, 0, 59, 154, 202, 0})
	// Mux envelopes inside the one every request arrives in (error-answered,
	// never dispatched): around a lookup, two deep, a truncated header; a
	// spent budget (1ns: must answer StatusExpired without touching the
	// directory); the trace and deadline envelopes in both orders; ring gossip
	// inside the lot; and a ping carrying the capability word clients used to
	// open a connection with.
	lookup := []byte{opLookupBatch, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7}
	tctx := obs.TraceCtx{ID: 9, Hop: 2}
	f.Add(transporttest.MuxWrap(1, lookup))
	f.Add(transporttest.MuxWrap(1, transporttest.MuxWrap(2, lookup)))
	f.Add([]byte{transport.OpMux, 0, 0, 0})
	f.Add(transport.WrapDeadline(1, lookup))
	f.Add(transport.WrapTraced(transport.WrapDeadline(time.Minute, lookup), tctx))
	f.Add(transport.WrapDeadline(time.Minute, transport.WrapTraced(lookup, tctx)))
	f.Add(transport.WrapDeadline(time.Minute, transport.WrapTraced(
		[]byte{opLookupBatch, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9}, tctx)))
	f.Add(transport.WrapTraced(transport.WrapDeadline(time.Minute,
		[]byte{opRingView, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}), tctx))
	f.Add([]byte{transport.OpPing, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, req []byte) {
		// Fresh state per input: a fuzzed Register must not grow one shared
		// lease map without bound across the whole run. Replica mode is on so
		// the ring opcodes exercise their real handlers (the exchange loop is
		// not running, so the configured peer is never dialed).
		srv := NewDirServer(NewDirectory())
		srv.EnableReplica(ReplicaConfig{Self: 0, Peers: map[ReplicaID]string{1: "127.0.0.1:1"}})
		srv.dir.Register(2, 0)
		srv.dir.Claim(7, 2)

		resp := transporttest.Dispatch(srv.t, req)
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		if len(req) > 0 && req[0] == transport.OpMux && resp[0] != transport.StatusErr {
			t.Fatalf("mux envelope inside a mux envelope answered %x, want StatusErr", resp)
		}
		if len(req) > 0 && req[0] >= 1 && req[0] <= 3 && resp[0] != transport.StatusErr {
			t.Fatalf("retired opcode %d answered %x, want an unknown-opcode error", req[0], resp)
		}
		if owner, ok := srv.dir.Lookup(7); resp[0] == transport.StatusErr && (!ok || owner != 2 || srv.dir.Len() != 1) {
			t.Fatalf("request %x was refused but changed the ownership table", req)
		}
		switch resp[0] {
		case transport.StatusOK, transport.StatusErr, transport.StatusExpired:
		case transport.StatusRetryAfter:
			t.Fatalf("retry-after with no admission gate installed")
		default:
			t.Fatalf("response status %d", resp[0])
		}
	})
}
