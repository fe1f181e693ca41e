package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/obs"
	"icache/internal/singleflight"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// The vectored serving path. Every opGetBatch / opPeerGetBatch request —
// traced or not, with or without a deadline — is served
// here, without copying payload bytes and without per-request heap
// allocation when every sample is a local hit:
//
//  1. request ids decode into a pooled scratch slice,
//  2. the policy verdict appends into a pooled served slice
//     (icache.Server.FetchBatchInto),
//  3. each resident payload is read from the payload store by reference
//     (no copy),
//  4. the response is framed as header runs + payload references in a
//     pooled wire.Vec and written with ONE vectored write (writev on TCP),
//  5. the references are dropped after the write returns — eviction may
//     have deleted the entries mid-write, but stored bytes are immutable and
//     never recycled, so the slices the request holds outlive the iovec
//     submission.
//
// Misses drop to the miss collector (singleflight, peer scatter-gather,
// backend) where a round trip dwarfs allocation cost.

// servedPayload is one response slot: the payload bytes and — on the peer
// path — whether the entry was present at all.
type servedPayload struct {
	id dataset.SampleID
	b  []byte
	ok bool
}

// serveScratch is the pooled per-request working set of the vectored path.
type serveScratch struct {
	ids     []dataset.SampleID
	served  []dataset.SampleID
	out     []servedPayload
	missIdx []int
	vec     wire.Vec

	// The miss path's working set: a request (or a prefetch worker's turn)
	// that misses owns these for as long as it owns the scratch.
	leads, waits     []missKey                   // collect: keys this request leads / joined
	own              map[*singleflight.Call]bool // collect: the calls behind leads
	remaining, local []missKey                   // scatterToPeers: still missing / left for the backend
	groups           map[dkv.NodeID][]missKey    // scatterToPeers: remaining keys by owning node
	keyIDs           []dataset.SampleID          // ids of the directory lookup, then of a peer RPC
	// peerBufs are the peer answers sc.out references; the request is their
	// only reader (peerFetchBatch), so releaseScratch hands them back. mu
	// guards local and peerBufs while scatterToPeers has a second owner's
	// goroutine running (wg waits for those).
	peerBufs []*wire.Buffer
	mu       sync.Mutex
	wg       sync.WaitGroup
}

// maxPooledScratchIDs bounds the capacity of every slice a pooled scratch may
// retain, so one degenerate giant batch does not pin its working set forever.
const maxPooledScratchIDs = 1 << 16

var serveScratchPool = sync.Pool{New: func() interface{} {
	return &serveScratch{own: make(map[*singleflight.Call]bool), groups: make(map[dkv.NodeID][]missKey)}
}}

func getServeScratch() *serveScratch {
	return serveScratchPool.Get().(*serveScratch)
}

// releaseScratch hands back the peer answers the request read — its response
// has been written — clears every payload, call and buffer reference it held
// (a pooled scratch must not keep evicted bytes alive, nor point at a recycled
// buffer) and returns the scratch to the pool. Safe on partially filled
// scratches (error paths).
func releaseScratch(sc *serveScratch) {
	for _, b := range sc.peerBufs {
		wire.PutBuffer(b)
	}
	clear(sc.peerBufs)
	clear(sc.out)
	clear(sc.own)
	for _, keys := range [...][]missKey{sc.leads, sc.waits, sc.remaining, sc.local} {
		clear(keys)
	}
	for node, g := range sc.groups {
		clear(g)
		sc.groups[node] = g[:0]
	}
	if max(cap(sc.ids), cap(sc.leads), cap(sc.waits), cap(sc.remaining), cap(sc.local), cap(sc.keyIDs)) > maxPooledScratchIDs {
		return // a group is at most remaining, so they are bounded with it
	}
	sc.ids, sc.served, sc.out, sc.missIdx = sc.ids[:0], sc.served[:0], sc.out[:0], sc.missIdx[:0]
	sc.leads, sc.waits, sc.remaining, sc.local = sc.leads[:0], sc.waits[:0], sc.remaining[:0], sc.local[:0]
	sc.keyIDs, sc.peerBufs = sc.keyIDs[:0], sc.peerBufs[:0]
	serveScratchPool.Put(sc)
}

// serveVec serves one batch read: decode the ids into a pooled scratch,
// resolve payloads (local hits by reference), frame, one vectored write through
// w. ctx is the trace context (zero when untraced), dl the deadline (zero
// when unbounded). It runs on one of the connection's dispatch goroutines.
// The returned error is a connection write error; protocol and resolution
// errors are answered in-band.
func (s *Server) serveVec(w transport.Response, req []byte, ctx obs.TraceCtx, dl time.Time) error {
	sc := getServeScratch()
	defer releaseScratch(sc)
	d := wire.NewReader(req)
	op := d.U8()
	var err error
	if sc.ids, err = decodeGetBatchRequestInto(d, sc.ids[:0]); err != nil {
		return w.Err(err)
	}
	// The request stage runs from here — ids decoded — to the response
	// written; a traced request records the same interval as its rpc_recv
	// span, whichever of the two ops it is.
	var t0 time.Time
	if s.obs.tracing(ctx) || (op == opGetBatch && (s.obs.histsOn() || s.obs.slowThresh > 0)) {
		t0 = time.Now()
	}
	// Deadline check BEFORE the policy engine runs (the budget may also have
	// drained while a muxed request waited for a dispatch worker): an expired
	// request must not move cache state or counters, so
	// shed+expired+served == offered stays an exact identity. Peer batch
	// requests inherit the originating request's budget.
	if s.deadlineExpired(dl) {
		return w.Expired()
	}
	if op == opPeerGetBatch {
		s.fillPeerPinned(sc)
	} else if err := s.getBatchPinned(sc, ctx, dl); err != nil {
		return w.Err(err)
	}
	werr := s.writeVecResponse(w, sc, op == opPeerGetBatch)
	if !t0.IsZero() {
		dur := time.Since(t0)
		s.span(trace.KindRPCRecv, 0, int64(len(sc.ids)), ctx, dur)
		if op == opGetBatch {
			s.obs.request.Record(dur)
			// Pin this trace as the latency-bucket exemplar: the journal's
			// bridge from "the p99 bucket moved" to a stitched trace chain.
			s.obs.exemplars.Record(dur, ctx.ID)
			s.maybeLogSlow(ctx, len(sc.ids), dur)
		}
	}
	return werr
}

// getBatchPinned is the one GetBatch core: the policy verdict for sc.ids
// lands in sc.served, local hits land in sc.out by reference, and the misses
// (sc.missIdx) are resolved by the miss collector. The policy decision is a
// short critical section under policyMu; all byte fetching happens outside
// any lock.
func (s *Server) getBatchPinned(sc *serveScratch, ctx obs.TraceCtx, dl time.Time) error {
	spec := s.source.Spec()
	for _, id := range sc.ids {
		if !spec.Contains(id) {
			return fmt.Errorf("rpc: sample %d out of range for dataset %q", id, spec.Name)
		}
	}

	histsOn := s.obs.histsOn()
	s.policyMu.Lock()
	var tLock time.Time
	if histsOn {
		tLock = time.Now()
	}
	sc.served = sc.served[:0]
	s.cache.FetchBatchInto(s.now(), sc.ids, &sc.served)
	s.policyMu.Unlock()
	s.obs.policyLock.Since(tLock)

	sc.out = sc.out[:0]
	sc.missIdx = sc.missIdx[:0]
	for i, id := range sc.served {
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if b, ok := s.payloads.get(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			sc.out = append(sc.out, servedPayload{id: id, b: b, ok: true})
			continue
		}
		sc.out = append(sc.out, servedPayload{id: id, ok: true})
		sc.missIdx = append(sc.missIdx, i)
	}
	if hits := len(sc.served) - len(sc.missIdx); hits > 0 {
		s.payloads.refReads.Add(int64(hits))
	}
	if len(sc.missIdx) == 0 {
		return nil
	}
	return s.collect(sc, ctx, dl)
}

// fillPeerPinned serves opPeerGetBatch against the payload store only:
// per-id reads by reference, never policyMu, never a cache mutation (a peer
// storm cannot stall local serving decisions). Response entries align with
// the request ids.
func (s *Server) fillPeerPinned(sc *serveScratch) {
	sc.out = sc.out[:0]
	served := 0
	for _, id := range sc.ids {
		if b, ok := s.payloads.get(id); ok {
			sc.out = append(sc.out, servedPayload{id: id, b: b, ok: true})
			served++
		} else {
			sc.out = append(sc.out, servedPayload{id: id})
		}
	}
	if served > 0 {
		s.payloads.refReads.Add(int64(served))
		if s.dist != nil {
			atomic.AddInt64(&s.dist.peerServes, int64(served))
		}
	}
}

// writeVecResponse frames sc.out (GetBatch or PeerGetBatch layout) into
// the scratch Vec and performs the single vectored write. The payload
// references in sc stay held until the caller's releaseScratch — after the
// write has fully completed.
func (s *Server) writeVecResponse(w transport.Response, sc *serveScratch, peer bool) error {
	v := &sc.vec
	w.BeginVec(v)
	v.U32(uint32(len(sc.out)))
	for i := range sc.out {
		sp := &sc.out[i]
		if peer {
			if !sp.ok {
				v.U8(0)
				continue
			}
			v.U8(1)
			v.U32(uint32(len(sp.b)))
			v.Payload(sp.b)
			continue
		}
		v.I64(int64(sp.id))
		v.U32(uint32(len(sp.b)))
		v.Payload(sp.b)
	}
	return w.WriteVec(v)
}
