package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/singleflight"
	"icache/internal/trace"
	"icache/internal/wire"
)

// ByteSource supplies real sample payloads: storage.DataSource (generated
// on demand) and storage.FileSource (a packed dataset file) both satisfy it.
// Fetch must be safe for concurrent use: the serving path keeps up to
// backendReadBudget reads in flight, from request goroutines and the
// prefetch pool at once.
type ByteSource interface {
	Spec() dataset.Spec
	Fetch(id dataset.SampleID) ([]byte, error)
}

// Server is the network-facing iCache server: it owns an icache.Server for
// cache policy decisions, a ByteSource for real sample bytes, and a payload
// store that mirrors the cache's residency. Policy time is driven by the
// wall clock, so the background loading thread's pacing carries over to
// live deployments.
//
// # Concurrency model and lock ordering
//
// The serving path is built so that no lock is ever held across I/O. Three
// lock classes exist, and they must be acquired in this order (any prefix
// is fine, the reverse is forbidden):
//
//		policyMu  →  payload-store shard locks (leaf)
//		connMu (independent leaf: listener/connection bookkeeping only)
//
//	  - policyMu guards the icache.Server policy engine (FetchBatch,
//	    InstallHList, StartEpoch, Stats, Resident, Drop, checkpoints) and is
//	    only ever held for short, CPU-bound critical sections. It is NEVER
//	    held across ByteSource.Fetch, peer reads, directory calls, or frame
//	    I/O. Cache mutations fire the eviction observer synchronously, so
//	    the observer also runs under policyMu; it may take shard locks
//	    (policyMu → shard is the legal order) and must not block.
//	  - payload-store shard locks (see payloadStore in store.go) are leaves:
//	    taken and released inside single store methods, never held across
//	    any other acquisition or I/O.
//	  - connMu guards the listener and the live-connection set; it nests
//	    with nothing.
//
// Slow work — backend fetches and remote peer reads — happens outside all
// locks, coalesced per sample ID through a singleflight group so K
// concurrent misses on one sample issue exactly one backend read. The
// distributed helpers in peer.go (resolveRemote, claimOwnership) are
// called WITHOUT policyMu held; the old "called with s.mu held, drops it
// across the network" contract is gone.
type Server struct {
	cache  *icache.Server
	source ByteSource
	start  time.Time

	// policyMu guards cache (the policy engine). Short critical sections
	// only; see the concurrency model above.
	policyMu sync.Mutex
	// payloads is the sharded byte store mirroring cache residency.
	payloads *payloadStore
	// flight coalesces concurrent miss-path fetches per sample ID.
	flight singleflight.Group
	// readSlots is the server-wide backend-read budget: a FIFO counting
	// semaphore (see backendReadBudget) taken only in readBackend.
	readSlots chan struct{}
	// coalescedMisses counts miss-path fetches that joined an in-flight
	// fetch instead of issuing their own (atomic).
	coalescedMisses int64
	// prefetch is the bounded async worker pool that pulls payload bytes
	// for samples the loader delivered into the L-cache (nil when
	// disabled).
	prefetch *prefetcher
	// plan is the clairvoyant cross-epoch prefetch planner (nil = reactive
	// only); installed via SetClairvoyant before Serve. The planner drains
	// through the prefetch worker pool under a bandwidth budget calibrated
	// from the backendFetch* throughput observations below.
	plan *planner
	// backendFetchBytes / backendFetchNanos accumulate observed backend
	// fetch throughput for the planner's token bucket (atomics; only
	// maintained while plan != nil). demandFetches counts backend reads
	// issued on the demand path — the "cold miss" metric the clairvoyant
	// plan exists to drive to zero (atomic, always maintained).
	backendFetchBytes int64
	backendFetchNanos int64
	demandFetches     int64
	// muxInflight gauges mux requests currently in async dispatch (atomic).
	muxInflight int64

	ln      net.Listener
	conns   sync.WaitGroup
	connMu  sync.Mutex
	connSet map[net.Conn]struct{}
	closed  chan struct{}

	// gate is the adaptive admission controller (nil = admit everything).
	// Installed via SetAdmission before Serve; the serving path reads it
	// without synchronization.
	gate *overload.Gate
	// shedCount / expiredCount (atomics) are requests rejected by the gate
	// and requests dropped because their deadline budget ran out before the
	// cache was touched. Neither increments any cache counter, so the
	// conservation identity extends to
	// hits+misses+substitutions+degraded + shed + expired == offered.
	shedCount    int64
	expiredCount int64

	// dist holds the §III-E distributed wiring (nil on a lone server).
	dist *distState

	// obs holds the optional observability wiring — per-stage latency
	// histograms, span tracing, slow-request log (see obs.go). Configure
	// via EnableObs / SetSlowRequestLog before Serve; the serving path
	// reads these fields without synchronization.
	obs serverObs

	// journal is the optional control-plane event journal (nil = off);
	// installed via SetJournal before Serve. dec holds the serving-layer
	// decision counters (see decision.go).
	journal *obs.Journal
	dec     rpcDecisions

	// Logf sinks server logs; defaults to log.Printf. Tests may silence it.
	Logf func(format string, args ...interface{})
}

// NewServer wires a cache policy engine to a byte source. If the policy
// engine's config enables prefetch workers, the server starts a bounded
// worker pool that asynchronously fills the payload store for samples the
// background loader delivers into the L-cache (the paper's Fig. 15
// prefetch-worker knob).
func NewServer(cacheSrv *icache.Server, source ByteSource) *Server {
	s := &Server{
		cache:     cacheSrv,
		source:    source,
		start:     time.Now(),
		payloads:  newPayloadStore(),
		readSlots: make(chan struct{}, backendReadBudget),
		connSet:   make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
		Logf:      log.Printf,
	}
	cacheSrv.SetEvictObserver(func(id dataset.SampleID) {
		// Runs under policyMu (all cache mutations happen under it).
		// policyMu → shard lock is the legal order; releaseOwnership is
		// async and never blocks here.
		s.payloads.delete(id)
		s.releaseOwnership(id)
		// An eviction before any hit means a pending prefetch was wasted.
		s.prefetch.noteEvict(id)
	})
	if n := cacheSrv.PrefetchWorkers(); n > 0 {
		s.prefetch = newPrefetcher(s, n)
		cacheSrv.SetLoadObserver(s.prefetch.enqueue)
	}
	return s
}

// now maps wall-clock elapsed time onto the cache's virtual timeline.
func (s *Server) now() simclock.Time { return simclock.Time(time.Since(s.start)) }

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		// Register under connMu, where Close closes what is registered: a
		// connection accepted while Close was already running is refused
		// here instead of being served with nobody left to close it.
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			return net.ErrClosed
		default:
		}
		s.connSet[conn] = struct{}{}
		s.conns.Add(1)
		s.connMu.Unlock()
		go func() {
			defer func() {
				s.connMu.Lock()
				delete(s.connSet, conn)
				s.connMu.Unlock()
				s.conns.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	s.connMu.Lock()
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.connSet {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Wait()
	// The planner feeds the prefetch pool; stop it first so no planned
	// enqueue races the pool teardown.
	if s.plan != nil {
		s.plan.stop()
	}
	if s.prefetch != nil {
		s.prefetch.stop()
	}
	if s.dist != nil {
		s.StopMembership()
		s.dist.closePeers()
	}
	return err
}

// serveConn is one connection's read loop. It reads through the
// connection's wire.FrameReader, reusing its frame buffer across requests
// (serveFrame decodes or copies whatever outlives its call, so aliasing is
// safe), and hands every frame to serveFrame. On teardown the connection
// closes FIRST, then the loop waits for in-flight mux handlers: stragglers
// fail their writes fast instead of blocking shutdown.
func (s *Server) serveConn(conn net.Conn) {
	cs := &muxConnState{conn: conn, sem: make(chan struct{}, muxServerInflight)}
	defer cs.wg.Wait()
	defer conn.Close()
	rd := wire.NewFrameReader(conn)
	for {
		req, err := rd.Next()
		if err == nil {
			err = s.serveFrame(cs, req)
		}
		if err != nil {
			// Normal client disconnects arrive as EOF; anything else is worth
			// a log line but never a crash.
			if !errors.Is(err, io.EOF) {
				s.logIfUnexpected(err)
			}
			return
		}
	}
}

// serveFrame is the one request path: every frame a connection delivers —
// and every request the tests and the fuzzer inject — is peeled, gated and
// dispatched here, in this order:
//
//  1. The opMuxReq envelope is optional. A muxed request is served on its
//     own goroutine (bounded by cs.sem), so a pipelined client gets
//     concurrent service on one connection, and its response echoes the
//     envelope; a bare frame — the handshake ping, a client's one-shot retry
//     — is served on the read loop. All response writes serialize on cs.wmu
//     so frames never interleave.
//  2. The deadline and trace envelopes are peeled (peelEnvelopes), so the
//     gate and the dispatch below key on the INNER opcode.
//  3. Admission runs BEFORE the per-connection semaphore: a shed request is
//     answered from the read loop and never occupies a dispatch slot — that
//     is the whole point of shedding.
//  4. opGetBatch and opPeerGetBatch take the vectored path (serve_vec.go);
//     every other opcode answers through dispatchControl.
//
// frame aliases the read loop's reusable buffer: what a dispatch goroutine
// needs is decoded (ids, into a pooled scratch) or copied before it starts.
// The returned error is a failed write from the read loop (the caller tears
// the connection down); protocol errors are answered in-band.
func (s *Server) serveFrame(cs *muxConnState, frame []byte) error {
	inner, muxed, muxID := frame, false, uint32(0)
	if len(frame) >= muxHeaderLen && frame[0] == opMuxReq {
		inner, muxed, muxID = frame[muxHeaderLen:], true, binary.BigEndian.Uint32(frame[1:])
	}
	inner, ctx, dl, err := peelEnvelopes(inner)
	if err != nil {
		msg := err.Error()
		return s.writeControlFrame(cs, muxID, muxed, func(e *buffer) {
			encodeErrorResponseInto(e, msg)
		})
	}
	admitted := false
	if g := s.gate; g != nil && gatedOp(inner) {
		ok, after := g.Admit(time.Now())
		if !ok {
			atomic.AddInt64(&s.shedCount, 1)
			return s.writeControlFrame(cs, muxID, muxed, func(e *buffer) {
				encodeRetryAfterResponseInto(e, after)
			})
		}
		admitted = true
	}

	if len(inner) > 0 && (inner[0] == opGetBatch || inner[0] == opPeerGetBatch) {
		op := inner[0]
		sc := getServeScratch()
		d := newReader(inner)
		d.u8()
		ids, derr := decodeGetBatchRequestInto(d, sc.ids[:0])
		sc.ids = ids
		if !muxed {
			err := s.serveVecDecoded(cs, 0, false, op, sc, derr, ctx, dl)
			if admitted {
				s.gate.Done()
			}
			return err
		}
		s.acquireMuxSlot(cs, admitted)
		go func() {
			defer s.releaseMuxSlot(cs, admitted)
			if err := s.serveVecDecoded(cs, muxID, true, op, sc, derr, ctx, dl); err != nil {
				s.logIfUnexpected(err)
			}
		}()
		return nil
	}

	if !muxed {
		err := s.serveControl(cs, 0, false, inner, ctx)
		if admitted {
			s.gate.Done()
		}
		return err
	}
	innerCopy := append([]byte(nil), inner...)
	s.acquireMuxSlot(cs, admitted)
	go func() {
		defer s.releaseMuxSlot(cs, admitted)
		if err := s.serveControl(cs, muxID, true, innerCopy, ctx); err != nil {
			s.logIfUnexpected(err)
		}
	}()
	return nil
}

// muxServerInflight bounds concurrently dispatched mux requests per
// connection; when full, the read loop blocks, pushing backpressure onto
// the client's own in-flight bound.
const muxServerInflight = 64

// muxConnState is one connection's async-dispatch bookkeeping: the write
// mutex all response frames serialize on, the handler semaphore, and the
// WaitGroup serveConn drains on teardown.
type muxConnState struct {
	conn net.Conn
	wmu  sync.Mutex
	wg   sync.WaitGroup
	sem  chan struct{}
}

// writeBuffer sends the response e encoded on the pooled frame buffer wb —
// one frame, one write, under wmu — and recycles wb.
func (cs *muxConnState) writeBuffer(wb *wire.Buffer, e *buffer) error {
	wb.B = e.B // appends may have grown past the pooled backing array
	cs.wmu.Lock()
	err := wire.WriteFrame(cs.conn, wb)
	cs.wmu.Unlock()
	wire.PutBuffer(wb)
	return err
}

// acquireMuxSlot takes a per-connection dispatch slot, feeding the time
// spent blocked on the full semaphore — the server's standing queue delay —
// to the admission gate's CoDel window and the admission_wait histogram.
func (s *Server) acquireMuxSlot(cs *muxConnState, admitted bool) {
	measure := admitted || s.obs.histsOn()
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	cs.sem <- struct{}{}
	if measure {
		now := time.Now()
		wait := now.Sub(t0)
		if admitted {
			s.gate.Observe(now, wait)
		}
		s.obs.admissionWait.Record(wait)
	}
	cs.wg.Add(1)
	atomic.AddInt64(&s.muxInflight, 1)
}

func (s *Server) releaseMuxSlot(cs *muxConnState, admitted bool) {
	if admitted {
		s.gate.Done()
	}
	atomic.AddInt64(&s.muxInflight, -1)
	<-cs.sem
	cs.wg.Done()
}

// MuxInflight reports the number of mux requests currently being served
// across all connections (gauge).
func (s *Server) MuxInflight() int64 { return atomic.LoadInt64(&s.muxInflight) }

// SetAdmission installs the adaptive admission gate (nil = admit
// everything). Must be called before Serve. The gate's state ladder drives
// the brownout side effects in order: Brownout first sacrifices optional
// work — substitution scans stop and the prefetch pool pauses — and only
// the Shed state rejects foreground requests; Normal restores both.
func (s *Server) SetAdmission(g *overload.Gate) {
	s.gate = g
	if g == nil {
		return
	}
	g.OnStateChange(func(old, next overload.State) {
		// Called under the gate's mutex: atomic flag flips and the
		// lock-striped journal append only, no server locks.
		degraded := next != overload.Normal
		s.cache.SetSubstitutionsDisabled(degraded)
		if s.prefetch != nil {
			s.prefetch.setPaused(degraded)
		}
		s.journal.Add(obs.EventGate, s.journalNode(), int64(old), int64(next),
			old.String()+"→"+next.String())
	})
}

// Admission exposes the installed gate (nil when admission is unbounded).
func (s *Server) Admission() *overload.Gate { return s.gate }

// OverloadCounters reports how many requests the server shed at admission
// and how many it dropped for an expired deadline budget.
func (s *Server) OverloadCounters() (shed, expired int64) {
	return atomic.LoadInt64(&s.shedCount), atomic.LoadInt64(&s.expiredCount)
}

// gatedOp reports whether the admission gate applies to a request (its
// envelopes already peeled). Health checks (opPing) and monitoring (opStats)
// always pass: an operator must be able to see an overloaded server.
func gatedOp(inner []byte) bool {
	return len(inner) > 0 && inner[0] != opPing && inner[0] != opStats
}

// writeControlFrame writes one buffered response frame — whatever fill
// encodes after the echoed mux envelope — from the read loop or a dispatch
// goroutine.
func (s *Server) writeControlFrame(cs *muxConnState, muxID uint32, muxed bool, fill func(e *buffer)) error {
	wb := wire.GetBuffer()
	e := buffer{Buffer: *wb}
	if muxed {
		e.u8(opMuxReq)
		e.u32(muxID)
	}
	fill(&e)
	return cs.writeBuffer(wb, &e)
}

// serveControl answers one non-batch request (envelopes already peeled).
func (s *Server) serveControl(cs *muxConnState, muxID uint32, muxed bool, req []byte, ctx obs.TraceCtx) error {
	return s.writeControlFrame(cs, muxID, muxed, func(e *buffer) { s.dispatchControl(req, e, ctx) })
}

func (s *Server) logIfUnexpected(err error) {
	if errors.Is(err, net.ErrClosed) {
		return
	}
	if s.Logf != nil {
		s.Logf("rpc: connection error: %v", err)
	}
}

// dispatchControl decodes one control-plane request — everything except the
// batch reads, which serveFrame routes to the vectored path — and appends
// the response into e. ctx is the request's trace context (zero when
// untraced). Protocol errors are answered, never fatal. The request buffer
// may be reused by the caller after dispatchControl returns, so no slice of
// req is retained (decoders copy what they keep).
func (s *Server) dispatchControl(req []byte, e *buffer, ctx obs.TraceCtx) {
	d := newReader(req)
	op := d.u8()
	switch op {
	case opUpdateImportance:
		items, err := decodeUpdateImportanceRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		s.policyMu.Lock()
		s.cache.InstallHList(sampling.NewHList(items))
		s.policyMu.Unlock()
		e.u8(statusOK)
	case opBeginEpoch:
		_ = d.u32() // epoch number: accepted for symmetry/logging
		s.policyMu.Lock()
		s.cache.StartEpoch(s.now())
		// Settle the prefetch-outcome ledger: pending prefetches the
		// finished epoch never touched are wasted work.
		s.prefetch.sweepEpoch()
		epoch := s.cache.Epoch()
		s.policyMu.Unlock()
		s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, "epoch boundary")
		e.u8(statusOK)
	case opEpochPlan:
		// Clairvoyant epoch boundary: cross the boundary exactly like
		// opBeginEpoch, then hand the policy engine the next epoch's known
		// schedule. PlanSchedule seeds the loader with the missing L-side
		// (honest virtual-time charging) and returns the missing H-side in
		// first-access order for the planner to pre-place.
		_, ids, err := decodeEpochPlanRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		s.policyMu.Lock()
		s.cache.StartEpoch(s.now())
		s.prefetch.sweepEpoch()
		var need []dataset.SampleID
		if s.plan != nil {
			need = s.cache.PlanSchedule(ids)
		}
		epoch := s.cache.Epoch()
		s.policyMu.Unlock()
		if s.plan != nil {
			s.plan.install(int64(epoch), need)
			s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch,
				fmt.Sprintf("epoch boundary (planned: %d missing H)", len(need)))
		} else {
			// A reactive server still honors the boundary — the client need
			// not know whether planning is on.
			s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, "epoch boundary")
		}
		e.u8(statusOK)
	case opPlanPreplace:
		ids, err := decodePlanPreplaceRequest(d)
		if err != nil {
			encodeErrorResponseInto(e, err.Error())
			return
		}
		var accepted int
		if s.plan != nil {
			accepted = s.plan.acceptRemote(ids)
		}
		e.u8(statusOK)
		e.u32(uint32(accepted))
	case opStats:
		s.policyMu.Lock()
		st := s.cache.Stats()
		out := Stats{
			Hits:          st.Hits,
			Misses:        st.Misses,
			Substitutions: st.Substitutions,
			HCacheLen:     int64(s.cache.HCacheLen()),
			LCacheLen:     int64(s.cache.LCacheLen()),
			Packages:      s.cache.PackagesLoaded(),
			DemandFetches: atomic.LoadInt64(&s.demandFetches),
		}
		s.policyMu.Unlock()
		encodeStatsResponseInto(e, out)
	case opPing:
		e.u8(statusOK)
		// A ping carrying a capability word is the dial-time handshake: echo
		// ours. A bare ping is the liveness check and gets the bare status.
		if len(d.rest()) >= 4 {
			_ = d.u32() // client capabilities (none change our behavior yet)
			e.u32(capMux)
		}
	case opPeerGet:
		s.handlePeerGet(d, e, ctx)
	default:
		encodeErrorResponseInto(e, fmt.Sprintf("rpc: unknown opcode %d", op))
	}
}

// deadlineExpired reports whether a request's budget has run out, counting
// the drop and recording the remaining-budget histogram as a side effect.
// A zero deadline never expires.
func (s *Server) deadlineExpired(dl time.Time) bool {
	if dl.IsZero() {
		return false
	}
	rem := time.Until(dl)
	if rem > 0 {
		s.obs.deadlineRem.Record(rem)
		return false
	}
	s.obs.deadlineRem.Record(0)
	atomic.AddInt64(&s.expiredCount, 1)
	return true
}

// backendReadBudget bounds the backend reads the whole SERVER keeps in
// flight — demand gathers of every request, the prefetch workers, the planner
// and checkpoint rehydration all draw on it in readBackend. 32 is twice the
// service slots of the paper's default store as this repo models it
// (storage.OrangeFS(): 4 servers × ServerParallelism 4): a storage slot never
// idles between two reads, and the store never sees more than that, however
// many requests are in flight. Slots are granted in arrival order whatever the
// class of the read: strict demand priority would invert through the
// singleflight layer (a demand request that joined a prefetch-led flight
// would wait behind its own class). Deliberately not a knob (DESIGN.md).
const backendReadBudget = 32

// missKey is one miss of a request: its position in the request and the
// in-flight call it either leads (the request must then Finish c exactly
// once) or waits on.
type missKey struct {
	id  dataset.SampleID
	c   *singleflight.Call
	pos int
}

// collect is the one miss collector. The positions getBatchPinned found no
// pinned payload for (sc.missIdx) are resolved together and patched into
// sc.out: every miss is registered in the singleflight layer first, so
// concurrent requests (and the prefetch pool) for the same samples coalesce
// onto exactly one fetch and every waiter is satisfied exactly once; the
// keys this request leads are then resolved by resolveMissBatch (peer
// scatter-gather on a distributed server, a bounded parallel backend gather
// for the rest). Miss-path bytes are adopted slabs or remote buffers — safe
// to frame without a pin.
func (s *Server) collect(sc *serveScratch, ctx obs.TraceCtx, dl time.Time) error {
	histsOn := s.obs.histsOn()

	// Pass 1: a racing fetch or prefetch may have stored the payload since
	// the pinned lookup; every remaining miss joins or leads the in-flight
	// fetch of its id. Nothing is waited on until every key this request
	// leads has been finished, so a duplicate id is safe: its second Begin
	// joins the call the request itself leads, and is served like any other
	// waiter.
	var leads, waits []missKey
	for _, i := range sc.missIdx {
		id := sc.served[i]
		var tHit time.Time
		if histsOn {
			tHit = time.Now()
		}
		if payload, ok := s.payloads.get(id); ok {
			s.obs.localHit.Since(tHit)
			s.prefetch.noteHit(id)
			sc.out[i].b = payload
			continue
		}
		c, leader := s.flight.Begin(int64(id))
		if !leader {
			waits = append(waits, missKey{id, c, i})
			continue
		}
		leads = append(leads, missKey{id, c, i})
		// A demand miss that overtakes a queued-but-unstarted prefetch
		// promotes it: this fetch becomes the one backend read and the
		// queued entry is cancelled (the backend must not pay twice).
		s.prefetch.noteDemand(id)
	}

	// Pass 2: resolve the keys we lead. resolveMissBatch finishes every one
	// of them exactly once on all paths, so these Waits return at once.
	if len(leads) > 0 {
		var tGather time.Time
		if histsOn {
			tGather = time.Now()
		}
		s.resolveMissBatch(leads, ctx, dl)
		s.obs.missGather.Since(tGather)
	}
	for _, k := range leads {
		payload, err := k.c.Wait()
		if err != nil {
			return fmt.Errorf("rpc: backend fetch of sample %d: %w", k.id, err)
		}
		sc.out[k.pos].b = payload
	}

	// Pass 3: the calls someone else leads (another request, the prefetch
	// pool) may still be in flight; waiting on them is the coalescing win.
	// A duplicate id of this request joined a call the request itself led:
	// it is already finished and shared nobody else's fetch, so it is
	// neither counted nor timed.
	var own map[*singleflight.Call]bool
	if len(waits) > 0 && len(leads) > 0 {
		own = make(map[*singleflight.Call]bool, len(leads))
		for _, k := range leads {
			own[k.c] = true
		}
	}
	for _, k := range waits {
		shared := !own[k.c]
		var tWait time.Time
		if shared && histsOn {
			tWait = time.Now()
		}
		payload, err := k.c.Wait()
		if err != nil {
			return fmt.Errorf("rpc: backend fetch of sample %d: %w", k.id, err)
		}
		if shared {
			atomic.AddInt64(&s.coalescedMisses, 1)
			s.obs.sfWait.Since(tWait)
		}
		sc.out[k.pos].b = payload
	}
	return nil
}

// resolveMissBatch resolves every singleflight key this request leads and
// GUARANTEES each is finished exactly once on all paths (a leaked leader
// key would deadlock every waiter). Called with no server lock held; all
// peer, directory and backend I/O happens outside locks.
func (s *Server) resolveMissBatch(keys []missKey, ctx obs.TraceCtx, dl time.Time) {
	// A peer's cache is cheaper than the backend (§III-E flow: local cache →
	// directory → remote cache → storage); a lone server is simply the case
	// with no directory step. PeerConfig.Batch == 0 asks per sample instead.
	askPeers := !s.batchedPeers()
	if !askPeers {
		keys = s.scatterToPeers(keys, ctx, dl)
	}

	// Gather what no peer satisfied from the backend; a one-miss request
	// spawns nothing (and allocates nothing for the fan-out).
	if len(keys) == 1 {
		s.fetchLed(keys[0], ctx, dl, askPeers)
		return
	}
	gather(len(keys), func(i int) { s.fetchLed(keys[i], ctx, dl, askPeers) })
}

// gather runs do(0..n-1) on min(n, 2×backendReadBudget) workers pulling from
// a shared index, the calling goroutine being worker 0. Twice the budget, not
// once: a worker that has handed its slot back still has its sample to admit
// and finish, and with only as many workers as slots a lone gather would idle
// every slot for that long after every read; with a second worker already
// queued behind each slot the next read starts at once. So an N-read gather
// sleeps through ⌈N/backendReadBudget⌉ backend latencies when it has the
// server to itself and shares the budget in arrival order when it does not.
func gather(n int, do func(i int)) {
	var g struct { // one allocation: both are shared with the workers
		next int64
		wg   sync.WaitGroup
	}
	work := func() {
		for {
			i := int(atomic.AddInt64(&g.next, 1)) - 1
			if i >= n {
				return
			}
			do(i)
		}
	}
	for w := 1; w < n && w < 2*backendReadBudget; w++ {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			work()
		}()
	}
	work()
	g.wg.Wait()
}

// fetchLed reads one led key from the backend and finishes it. askPeers is
// false for keys scatterToPeers has already asked the directory about.
func (s *Server) fetchLed(k missKey, ctx obs.TraceCtx, dl time.Time, askPeers bool) {
	p, err := s.fetchOne(k.id, ctx, dl, provFetch, askPeers)
	s.flight.Finish(int64(k.id), k.c, p, err)
}

// batchedPeers reports whether demand misses take the scatter-gather peer
// plane (one directory multi-lookup + one opPeerGetBatch per owning node).
// PeerConfig.Batch == 0 keeps the per-sample resolveRemote flow instead.
func (s *Server) batchedPeers() bool { return s.dist != nil && s.dist.peerCfg.Batch > 0 }

// resolvePayloadProv produces the bytes for one sample whose payload is not
// in the store — the single-key entry to the miss path, used by the prefetch
// workers and the planner. It coalesces with concurrent request misses on
// the same sample: one goroutine runs the fetch, the rest wait and share
// its result. prov is the admission provenance of the caller; when callers
// with different provenance coalesce onto one flight, the executor's
// provenance wins — attribution is per fetch, not per waiter.
func (s *Server) resolvePayloadProv(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time, prov admitProv) ([]byte, error) {
	var tWait time.Time
	if s.obs.histsOn() {
		tWait = time.Now()
	}
	payload, err, shared := s.flight.Do(int64(id), func() ([]byte, error) {
		return s.fetchOne(id, ctx, dl, prov, true)
	})
	if shared {
		atomic.AddInt64(&s.coalescedMisses, 1)
		// Only shared callers waited on someone else's fetch; the executor's
		// time is the backend/peer stage itself.
		s.obs.sfWait.Since(tWait)
	}
	return payload, err
}

// fetchOne is the one backend-read block: it produces the bytes of a sample
// whose singleflight key the caller leads, without holding any lock, and
// admits them. ctx is the trace context of the request driving the fetch
// (zero for untraced requests and prefetch work). askPeers tries the owning
// peer's cache first, per sample (a no-op on a lone server); the batched
// collector clears it for keys it has already scattered.
func (s *Server) fetchOne(id dataset.SampleID, ctx obs.TraceCtx, dl time.Time, prov admitProv, askPeers bool) ([]byte, error) {
	// Re-check under the flight's happens-before edge: a racing fetch may
	// have filled the store between the caller's miss and its Begin.
	if p, ok := s.payloads.get(id); ok {
		return p, nil
	}
	if askPeers {
		if remote, ok := s.resolveRemote(id, ctx, dl); ok {
			// Owned elsewhere: this node must not keep a duplicate.
			s.policyMu.Lock()
			if s.cache.Drop(id) {
				s.payloads.delete(id)
			}
			s.policyMu.Unlock()
			return remote, nil
		}
	}
	p, err := s.readBackend(id, ctx)
	if err != nil {
		return nil, err
	}
	if prov != provPrefetch {
		atomic.AddInt64(&s.demandFetches, 1)
	}
	s.admit(id, p, prov)
	return p, nil
}

// readBackend is the one place a backend read is issued and the one place a
// budget slot is taken. The slot is held across source.Fetch alone — not
// across peer reads, admission or the directory claim — and guardedFetch
// returns on every path (a panic becomes an error), so the slot is always
// handed back; a read that hangs holds its slot as it holds its singleflight
// key. backend_slot_wait is want → hold, backend_fetch is hold → done.
func (s *Server) readBackend(id dataset.SampleID, ctx obs.TraceCtx) ([]byte, error) {
	histsOn := s.obs.histsOn()
	measure := histsOn || s.obs.tracing(ctx)
	var tWant, tFetch time.Time
	if histsOn {
		tWant = time.Now()
	}
	s.readSlots <- struct{}{}
	if measure || s.plan != nil {
		tFetch = time.Now()
	}
	if histsOn {
		s.obs.slotWait.Record(tFetch.Sub(tWant))
	}
	p, err := s.guardedFetch(id)
	<-s.readSlots
	if !tFetch.IsZero() {
		dur := time.Since(tFetch)
		if measure {
			s.obs.backend.Record(dur)
			s.span(trace.KindBackend, id, 0, ctx, dur)
		}
		if s.plan != nil && err == nil {
			s.observeBackend(len(p), dur)
		}
	}
	return p, err
}

// guardedFetch is source.Fetch with a panic reported as the fetch's error:
// ByteSource is the one piece of foreign code on the miss path, and a leader
// that unwound past its Finish would hang every waiter on the key.
func (s *Server) guardedFetch(id dataset.SampleID) (p []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("ByteSource.Fetch panicked: %v", r)
		}
	}()
	return s.source.Fetch(id)
}

// admit stores a freshly fetched payload if the policy engine kept the
// sample resident and (in distributed mode) the directory claim succeeds.
// Called without locks; takes policyMu only for the residency checks and
// the final store insert, never across the directory call.
func (s *Server) admit(id dataset.SampleID, payload []byte, prov admitProv) {
	s.policyMu.Lock()
	resident := s.cache.Resident(id)
	s.policyMu.Unlock()
	if !resident {
		return
	}
	if !s.claimOwnership(id) {
		// Lost the claim race: another node owns it now.
		s.policyMu.Lock()
		s.cache.Drop(id)
		s.policyMu.Unlock()
		return
	}
	// Insert under policyMu so an eviction (which deletes store entries
	// under policyMu) cannot interleave between our residency check and
	// the store write, which would leak a payload with no resident owner.
	s.policyMu.Lock()
	if s.cache.Resident(id) {
		s.payloads.put(id, payload)
		s.dec.countAdmit(prov)
	} else {
		// Evicted while we were claiming; hand the claim back.
		s.releaseOwnership(id)
	}
	s.policyMu.Unlock()
}

// CoalescedMisses reports how many miss-path fetches were served by
// joining another goroutine's in-flight fetch.
func (s *Server) CoalescedMisses() int64 { return atomic.LoadInt64(&s.coalescedMisses) }

// DemandFetches reports how many backend reads were issued on the demand
// path — the cold misses the clairvoyant plan exists to eliminate.
func (s *Server) DemandFetches() int64 { return atomic.LoadInt64(&s.demandFetches) }
