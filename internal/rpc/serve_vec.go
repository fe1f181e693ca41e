package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/wire"
)

// The vectored serving path. Plain and multiplexed opGetBatch /
// opPeerGetBatch requests are served without copying payload bytes and
// without per-request heap allocation when every sample is a local hit:
//
//  1. request ids decode into a pooled scratch slice,
//  2. the policy verdict appends into a pooled served slice
//     (icache.Server.FetchBatchInto),
//  3. each resident payload is pinned in the slab store (refcount +1,
//     no copy),
//  4. the response is framed as header runs + payload references in a
//     pooled wire.Vec and written with ONE vectored write (writev on TCP),
//  5. pins release after the write returns — eviction may have deleted the
//     entries mid-write, but the slabs outlive the iovec submission.
//
// Misses drop to the ordinary resolution machinery (singleflight, peer
// scatter-gather, backend) where a round trip dwarfs allocation cost.
// Traced envelopes and the legacy-protocol test hook keep using the copy
// path in dispatchCtx, which stays byte-for-byte compatible.

// servedPayload is one response slot: the payload bytes, the pinned slab
// backing them (nil for zero-length or miss-path bytes), and — on the peer
// path — whether the entry was present at all.
type servedPayload struct {
	id  dataset.SampleID
	b   []byte
	pin *slab
	ok  bool
}

// serveScratch is the pooled per-request working set of the vectored path.
type serveScratch struct {
	ids     []dataset.SampleID
	served  []dataset.SampleID
	out     []servedPayload
	missIdx []int
	vec     wire.Vec
}

// maxPooledScratchIDs bounds the id capacity a pooled scratch may retain,
// so one degenerate giant batch does not pin its working set forever.
const maxPooledScratchIDs = 1 << 16

var serveScratchPool = sync.Pool{New: func() interface{} { return &serveScratch{} }}

func getServeScratch() *serveScratch {
	return serveScratchPool.Get().(*serveScratch)
}

// releaseScratch drops every slab pin the request took, clears payload
// references, and returns the scratch to the pool. Safe on partially
// filled scratches (error paths).
func (s *Server) releaseScratch(sc *serveScratch) {
	for i := range sc.out {
		if sc.out[i].pin != nil {
			s.payloads.unref(sc.out[i].pin)
			sc.out[i].pin = nil
		}
		sc.out[i].b = nil
	}
	sc.out = sc.out[:0]
	sc.served = sc.served[:0]
	sc.missIdx = sc.missIdx[:0]
	if cap(sc.ids) > maxPooledScratchIDs {
		return
	}
	sc.ids = sc.ids[:0]
	serveScratchPool.Put(sc)
}

// vecOp reports whether the vectored path serves this opcode. The legacy
// protocol hook routes everything through the copy path instead (its job is
// to reproduce pre-PR-5 behavior exactly).
func (s *Server) vecOp(op byte) bool {
	if s.legacyProto {
		return false
	}
	return op == opGetBatch || op == opPeerGetBatch
}

// serveVecRequest serves one decoded-opcode request on the vectored path:
// decode ids, resolve payloads (pinning local hits), frame, one vectored
// write. muxID/muxed carry the envelope to echo. The returned error is a
// connection write error (the caller tears the connection down); protocol
// and resolution errors are answered in-band.
func (s *Server) serveVecRequest(cs *muxConnState, muxID uint32, muxed bool, req []byte, dl time.Time) error {
	op := req[0]
	sc := getServeScratch()
	d := newReader(req)
	d.u8()
	ids, derr := decodeGetBatchRequestInto(d, sc.ids[:0])
	sc.ids = ids
	return s.serveVecDecoded(cs, muxID, muxed, op, sc, derr, dl)
}

// serveVecDecoded is serveVecRequest after id decode — the mux read loop
// decodes synchronously (the request buffer is reused for the next frame)
// and hands the scratch to a dispatch goroutine, which enters here.
// Releases sc on all paths.
func (s *Server) serveVecDecoded(cs *muxConnState, muxID uint32, muxed bool, op byte, sc *serveScratch, derr error, dl time.Time) error {
	defer s.releaseScratch(sc)
	if derr != nil {
		return s.writeVecError(cs, muxID, muxed, sc, derr.Error())
	}
	// The budget may have drained while this request sat in the dispatch
	// queue (the mux semaphore): re-check before touching the cache. Peer
	// batch requests inherit the originating request's budget, so the check
	// covers both ops.
	if op == opPeerGetBatch && s.deadlineExpired(dl) {
		return s.writeVecStatus(cs, muxID, muxed, sc, statusExpired)
	}
	var t0 time.Time
	if op == opGetBatch && (s.obs.histsOn() || s.obs.slowThresh > 0) {
		t0 = time.Now()
	}
	var err error
	if op == opPeerGetBatch {
		s.fillPeerPinned(sc)
	} else {
		err = s.getBatchPinned(sc.ids, obs.TraceCtx{}, sc, dl)
	}
	if err != nil {
		if errors.Is(err, overload.ErrExpired) {
			return s.writeVecStatus(cs, muxID, muxed, sc, statusExpired)
		}
		return s.writeVecError(cs, muxID, muxed, sc, err.Error())
	}
	werr := s.writeVecResponse(cs, muxID, muxed, sc, op == opPeerGetBatch)
	if !t0.IsZero() {
		dur := time.Since(t0)
		s.obs.request.Record(dur)
		s.maybeLogSlow(obs.TraceCtx{}, len(sc.ids), dur)
	}
	return werr
}

// getBatchPinned is the pinned-hit core of GetBatch: policy verdict into
// sc.served, local hits pinned into sc.out, misses resolved through the
// ordinary coalesced machinery and patched in afterwards. On error the
// caller releases whatever pins were already taken via releaseScratch.
func (s *Server) getBatchPinned(ids []dataset.SampleID, ctx obs.TraceCtx, sc *serveScratch, dl time.Time) error {
	// Same pre-policy deadline check as getBatch: an expired request leaves
	// no trace in the cache counters.
	if s.deadlineExpired(dl) {
		return overload.ErrExpired
	}
	spec := s.source.Spec()
	for _, id := range ids {
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
	s.cache.FetchBatchInto(s.now(), ids, &sc.served)
	s.policyMu.Unlock()
	s.obs.policyLock.Since(tLock)

	sc.out = sc.out[:0]
	sc.missIdx = sc.missIdx[:0]
	for i, id := range sc.served {
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if b, sl, ok := s.payloads.getPinned(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			sc.out = append(sc.out, servedPayload{id: id, b: b, pin: sl, ok: true})
			continue
		}
		sc.out = append(sc.out, servedPayload{id: id, ok: true})
		sc.missIdx = append(sc.missIdx, i)
	}
	if len(sc.missIdx) == 0 {
		return nil
	}

	// Miss path: a backend or peer round trip dwarfs allocation, so the
	// misses go through the same collector as the copying path. The returned
	// samples align with missIDs. Miss-path bytes are adopted slabs or remote
	// buffers — safe without a pin.
	missIDs := make([]dataset.SampleID, len(sc.missIdx))
	for j, i := range sc.missIdx {
		missIDs[j] = sc.served[i]
	}
	samples, err := s.collect(missIDs, ctx, dl)
	if err != nil {
		return err
	}
	for j, i := range sc.missIdx {
		sc.out[i].b = samples[j].Payload
	}
	return nil
}

// fillPeerPinned serves opPeerGetBatch against the payload store only:
// per-id pinned lookups, never policyMu, never a cache mutation — the same
// contract as handlePeerGetBatch, minus the copies.
func (s *Server) fillPeerPinned(sc *serveScratch) {
	sc.out = sc.out[:0]
	served := 0
	for _, id := range sc.ids {
		if b, sl, ok := s.payloads.getPinned(id); ok {
			sc.out = append(sc.out, servedPayload{id: id, b: b, pin: sl, ok: true})
			served++
		} else {
			sc.out = append(sc.out, servedPayload{id: id})
		}
	}
	if served > 0 && s.dist != nil {
		atomic.AddInt64(&s.dist.peerServes, int64(served))
	}
}

// writeVecResponse frames sc.out (GetBatch or PeerGetBatch layout) into
// the scratch Vec and performs the single vectored write under the
// connection's write mutex. Pins in sc stay held until the caller's
// releaseScratch — after the write has fully completed.
func (s *Server) writeVecResponse(cs *muxConnState, muxID uint32, muxed bool, sc *serveScratch, peer bool) error {
	v := &sc.vec
	v.Reset()
	if muxed {
		v.U8(opMuxReq)
		v.U32(muxID)
	}
	v.U8(statusOK)
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
	cs.wmu.Lock()
	_, err := v.WriteTo(cs.conn)
	cs.wmu.Unlock()
	return err
}

// writeVecStatus answers a body-less control status (statusExpired) on the
// vectored path.
func (s *Server) writeVecStatus(cs *muxConnState, muxID uint32, muxed bool, sc *serveScratch, status byte) error {
	v := &sc.vec
	v.Reset()
	if muxed {
		v.U8(opMuxReq)
		v.U32(muxID)
	}
	v.U8(status)
	cs.wmu.Lock()
	_, err := v.WriteTo(cs.conn)
	cs.wmu.Unlock()
	return err
}

// writeVecError answers a protocol or resolution error in-band on the
// vectored path (same bytes as encodeErrorResponseInto).
func (s *Server) writeVecError(cs *muxConnState, muxID uint32, muxed bool, sc *serveScratch, msg string) error {
	v := &sc.vec
	v.Reset()
	if muxed {
		v.U8(opMuxReq)
		v.U32(muxID)
	}
	v.U8(statusErr)
	v.Str(msg)
	cs.wmu.Lock()
	_, err := v.WriteTo(cs.conn)
	cs.wmu.Unlock()
	return err
}
