package rpc

import (
	"fmt"
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
	"icache/internal/transport"
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
//
// Slow work — backend fetches and remote peer reads — happens outside all
// locks, coalesced per sample ID through a singleflight group so K
// concurrent misses on one sample issue exactly one backend read. The
// distributed helpers in peer.go (scatterToPeers, claimOwnership) are
// called WITHOUT policyMu held.
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
	// prefetch is the one prefetcher: the queue of clairvoyant plan entries
	// and the worker pool, one worker per read slot, that pulls their bytes.
	prefetch *prefetcher
	// demandFetches counts backend reads issued on the demand path — the
	// "cold miss" metric the clairvoyant plan exists to drive to zero (atomic).
	demandFetches int64

	// t is the transport this server's handler (serve) is registered on: the
	// accept loop, the connections, the envelopes and the admission gate are
	// its business. once makes Close idempotent.
	t    *transport.Server
	once sync.Once

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

// NewServer wires a cache policy engine to a byte source. The server starts
// its prefetch pool, one worker per backendReadBudget slot, idle until a
// client sends an epoch plan.
func NewServer(cacheSrv *icache.Server, source ByteSource) *Server {
	s := &Server{
		cache:     cacheSrv,
		source:    source,
		start:     time.Now(),
		payloads:  newPayloadStore(),
		readSlots: make(chan struct{}, backendReadBudget),
		Logf:      log.Printf,
	}
	s.prefetch = newPrefetcher(s, backendReadBudget)
	s.t = transport.NewServer(transport.Handler{Route: route, Serve: s.serve})
	s.t.Logf = func(format string, args ...interface{}) {
		if s.Logf != nil { // read per line: callers set Logf after NewServer
			s.Logf(format, args...)
		}
	}
	cacheSrv.SetEvictObserver(func(id dataset.SampleID) {
		// Runs under policyMu (all cache mutations happen under it).
		// policyMu → shard lock is the legal order; releaseOwnership only
		// queues and never blocks here.
		s.payloads.delete(id)
		s.releaseOwnership(id)
		// An eviction before any hit means a pending prefetch was wasted.
		s.prefetch.noteEvict(id)
	})
	return s
}

// now maps wall-clock elapsed time onto the cache's virtual timeline.
func (s *Server) now() simclock.Time { return simclock.Time(time.Since(s.start)) }

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error { return s.t.Serve(ln) }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error { return s.t.ListenAndServe(addr) }

// Addr reports the bound listener address (once Serve has been called).
func (s *Server) Addr() net.Addr { return s.t.Addr() }

// Close stops accepting, waits for in-flight connections to finish, then
// stops the background machinery.
func (s *Server) Close() error {
	err := s.t.Close()
	s.once.Do(func() {
		s.prefetch.stop()
		if s.dist != nil {
			s.StopMembership()
			close(s.dist.releaseStop)
			s.dist.releaseWG.Wait()
			s.dist.closePeers()
		}
	})
	return err
}

// route is the cache protocol's half of the transport's handler contract.
// Every op may wait — on policyMu at the least, a miss on the backend — so
// none is served inline on the read loop; monitoring (opStats) stays
// ungated: an operator must be able to see an overloaded server.
// opPeerGetBatch alone waits on nothing but the connection's write; routing it
// Inline was measured (three alternating peer_churn pairs) and moved nothing,
// so it stays gated and dispatched like the rest.
func route(op byte) transport.Route {
	if op == opStats {
		return 0
	}
	return transport.Gated
}

// serve answers one request (envelopes peeled by the transport): opGetBatch
// and opPeerGetBatch take the vectored path (serve_vec.go), every other
// opcode answers through dispatchControl.
func (s *Server) serve(w transport.Response, req []byte, ctx obs.TraceCtx, dl time.Time) error {
	if op := req[0]; op == opGetBatch || op == opPeerGetBatch {
		return s.serveVec(w, req, ctx, dl)
	}
	return w.Reply(func(e *wire.Buffer) error { return s.dispatchControl(req, e, ctx) })
}

// SetAdmission installs the adaptive admission gate (nil = admit
// everything). Must be called before Serve. The gate's state ladder drives
// the brownout side effects in order: Brownout first sacrifices optional
// work — substitution scans stop and the prefetch pool pauses — and only
// the Shed state rejects foreground requests; Normal restores both.
func (s *Server) SetAdmission(g *overload.Gate) {
	s.t.Gate = g
	if g == nil {
		return
	}
	g.OnStateChange(func(old, next overload.State) {
		// Called under the gate's mutex: flag flips (the prefetch pool's
		// leaf lock) and the lock-striped journal append only, no server
		// locks.
		degraded := next != overload.Normal
		s.cache.SetSubstitutionsDisabled(degraded)
		s.prefetch.setPaused(degraded)
		s.journal.Add(obs.EventGate, s.journalNode(), int64(old), int64(next),
			old.String()+"→"+next.String())
	})
}

// OverloadCounters reports how many requests the server shed at admission
// and how many it dropped because their deadline budget ran out before the
// cache was touched. Neither increments any cache counter, so the
// conservation identity extends to
// hits+misses+substitutions+degraded + shed + expired == offered.
func (s *Server) OverloadCounters() (shed, expired int64) { return s.t.OverloadCounters() }

// dispatchControl decodes one control-plane request — everything except the
// batch reads, which serve routes to the vectored path — and appends the body
// of its StatusOK answer to e. ctx is the request's trace context (zero when
// untraced). A returned error is answered StatusErr in its place, never
// fatal. The request buffer is reused by the transport after dispatchControl
// returns, so no slice of req is retained (decoders copy what they keep).
func (s *Server) dispatchControl(req []byte, e *wire.Buffer, ctx obs.TraceCtx) error {
	d := wire.NewReader(req)
	op := d.U8()
	switch op {
	case opUpdateImportance:
		items, err := decodeUpdateImportanceRequest(d)
		if err != nil {
			return err
		}
		s.policyMu.Lock()
		s.cache.InstallHList(sampling.NewHList(items))
		s.policyMu.Unlock()
	case opBeginEpoch:
		_ = d.U32() // epoch number: accepted for symmetry/logging
		s.crossEpoch(nil, false)
	case opEpochPlan:
		_, ids, err := decodeEpochPlanRequest(d)
		if err != nil {
			return err
		}
		s.crossEpoch(ids, true)
	case opPlanPreplace:
		ids, err := decodePlanPreplaceRequest(d)
		if err != nil {
			return err
		}
		e.U32(uint32(s.acceptRemote(ids)))
	case opStats:
		s.policyMu.Lock()
		v := s.cache.View()
		s.policyMu.Unlock()
		encodeStatsResponseInto(e, Stats{
			Hits:          v.Cache.Hits,
			Misses:        v.Cache.Misses,
			Substitutions: v.Cache.Substitutions,
			HCacheLen:     int64(v.HLen),
			LCacheLen:     int64(v.LLen),
			Packages:      v.Packages,
			DemandFetches: atomic.LoadInt64(&s.demandFetches),
		})
	default:
		return fmt.Errorf("rpc: unknown opcode %d", op)
	}
	return nil
}

// crossEpoch answers an epoch boundary. Under one policyMu hold the policy
// engine crosses and the prefetch pool's sweep ends the finished epoch's
// plan: its unstarted entries are dropped, the tokens it left out are booked
// wasted, and the new epoch's generation opens. Only a plan queues prefetches
// (the loader's catch-up fills the L-cache's residency, not the store), so
// the two may run in either order. A plan (planned: opEpochPlan) also hands
// PlanSchedule the new epoch's schedule — it seeds the loader with the
// missing L-side (honest virtual-time charging) and returns the missing
// H-side in first-access order — which is built and queued outside the lock
// but before the boundary is answered; a peer's pre-placed entries accepted
// meanwhile join the same generation. Remembered owners go first, so the
// plan's sweep is remembered in the new generation.
func (s *Server) crossEpoch(schedule []dataset.SampleID, planned bool) {
	if s.dist != nil {
		s.dist.owners.forgetAll()
	}
	s.policyMu.Lock()
	epoch := s.cache.StartEpoch(s.now())
	s.prefetch.sweepEpoch(epoch)
	var need []dataset.SampleID
	if planned {
		need = s.cache.PlanSchedule(schedule)
	}
	s.policyMu.Unlock()
	what := "epoch boundary"
	if planned {
		s.plan(epoch, need)
		what = fmt.Sprintf("epoch boundary (planned: %d missing H)", len(need))
	}
	s.journal.Add(obs.EventEpoch, s.journalNode(), epoch-1, epoch, what)
}

// deadlineExpired reports whether a request's budget has run out — the caller
// then answers Expired, which counts the drop — recording the
// remaining-budget histogram as a side effect. A zero deadline never expires.
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
	return true
}

// backendReadBudget bounds the backend reads the whole SERVER keeps in
// flight — demand gathers of every request, the prefetch workers (one per
// slot, so it is the one bound on planned reads) and checkpoint rehydration
// all draw on it in readBackend. 32 is twice the service slots of the paper's default store as
// this repo models it (storage.OrangeFS(): 4 servers × ServerParallelism 4):
// a storage slot never
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
// stored payload for (sc.missIdx) are resolved together and patched into
// sc.out: every miss is registered in the singleflight layer first, so
// concurrent requests (and the prefetch pool) for the same samples coalesce
// onto exactly one fetch and every waiter is satisfied exactly once; the
// keys this request leads are then resolved by resolveMissBatch (peer
// scatter-gather on a distributed server, a bounded parallel backend gather
// for the rest). Miss-path bytes are fetch buffers the store (and every
// waiter) shares read-only, or remote buffers: framed by reference like a hit.
func (s *Server) collect(sc *serveScratch, ctx obs.TraceCtx, dl time.Time) error {
	histsOn := s.obs.histsOn()

	// Pass 1: a racing fetch or prefetch may have stored the payload since
	// the first lookup; every remaining miss joins or leads the in-flight
	// fetch of its id. Nothing is waited on until every key this request
	// leads has been finished, so a duplicate id is safe: its second Begin
	// joins the call the request itself leads, and is served like any other
	// waiter.
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
		// A prefetch of id still holding its token resolves late: this miss
		// joined the fetch a worker leads, or leads the read itself and
		// promotes a queued-but-unstarted entry past it (the backend must
		// not pay twice).
		s.prefetch.noteDemand(id)
		if !leader {
			sc.waits = append(sc.waits, missKey{id, c, i})
			continue
		}
		sc.leads = append(sc.leads, missKey{id, c, i})
	}

	// Pass 2: resolve the keys we lead. resolveMissBatch finishes every one
	// of them exactly once on all paths, so these Waits return at once.
	if len(sc.leads) > 0 {
		var tGather time.Time
		if histsOn {
			tGather = time.Now()
		}
		s.resolveMissBatch(sc, sc.leads, ctx, dl, provFetch)
		s.obs.missGather.Since(tGather)
	}
	for _, k := range sc.leads {
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
	if len(sc.waits) > 0 {
		for _, k := range sc.leads {
			sc.own[k.c] = true
		}
	}
	for _, k := range sc.waits {
		shared := !sc.own[k.c]
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

// resolveMissBatch is the one entry to the miss path: it resolves every
// singleflight key the caller leads — a request's misses, or the one key of a
// prefetch worker's turn — and GUARANTEES each is finished exactly once on all
// paths (a leaked leader key would deadlock every waiter). sc is the caller's
// scratch: the peer step works in it and leaves in it the peer answers to hand
// back once the caller is done with their bytes. prov is the admission
// provenance of what the backend gather stores. Called with no server lock
// held; all peer, directory and backend I/O happens outside locks.
func (s *Server) resolveMissBatch(sc *serveScratch, keys []missKey, ctx obs.TraceCtx, dl time.Time, prov admitProv) {
	// A peer's cache is cheaper than the backend (§III-E flow: local cache →
	// directory → remote cache → storage); a lone server is simply the case
	// with no directory step.
	if s.dist != nil {
		keys = s.scatterToPeers(sc, keys, ctx, dl)
	}

	// Gather what no peer satisfied from the backend; a one-miss call spawns
	// nothing (and allocates nothing for the fan-out).
	if len(keys) == 1 {
		s.fetchLed(keys[0], ctx, prov)
		return
	}
	gather(len(keys), func(i int) { s.fetchLed(keys[i], ctx, prov) })
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

// fetchLed reads one led key from the backend and finishes it.
func (s *Server) fetchLed(k missKey, ctx obs.TraceCtx, prov admitProv) {
	p, err := s.fetchOne(k.id, ctx, prov)
	s.flight.Finish(int64(k.id), k.c, p, err)
}

// fetchOne is the one backend-read block: it produces the bytes of a sample
// whose singleflight key the caller leads (and scatterToPeers found no peer
// copy of), without holding any lock, and admits them. ctx is the trace
// context of the request driving the fetch (zero for untraced requests and
// prefetch work). When callers of different provenance coalesce onto one
// flight the leader's wins — attribution is per fetch, not per waiter.
func (s *Server) fetchOne(id dataset.SampleID, ctx obs.TraceCtx, prov admitProv) ([]byte, error) {
	// Re-check under the flight's happens-before edge: a racing fetch may
	// have filled the store between the caller's miss and its Begin.
	if p, ok := s.payloads.get(id); ok {
		return p, nil
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
	if measure {
		tFetch = time.Now()
	}
	if histsOn {
		s.obs.slotWait.Record(tFetch.Sub(tWant))
	}
	p, err := s.guardedFetch(id)
	<-s.readSlots
	if measure {
		dur := time.Since(tFetch)
		s.obs.backend.Record(dur)
		s.span(trace.KindBackend, id, 0, ctx, dur)
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
// the final store insert, never across the directory call. A lone server has
// no claim to make, so it takes the lock once: the pre-check exists only to
// spare the directory a Claim for a sample the policy already rejected.
func (s *Server) admit(id dataset.SampleID, payload []byte, prov admitProv) {
	if s.dist != nil {
		s.policyMu.Lock()
		resident := s.cache.Resident(id)
		s.policyMu.Unlock()
		if !resident {
			return
		}
		if keep, why := s.claimOwnership(id); !keep {
			s.policyMu.Lock()
			s.cache.DropFor(id, why)
			s.policyMu.Unlock()
			return
		}
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
