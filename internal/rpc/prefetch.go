package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
)

// prefetchItem is one queued delivery: the sample plus its enqueue instant
// (zero unless stage histograms are enabled), so the worker can record the
// prefetch_queue_wait stage without any clock reads on the disabled path.
type prefetchItem struct {
	id dataset.SampleID
	at time.Time
	// planned marks a clairvoyant plan entry (see plan.go): before fetching
	// bytes the worker must admit the sample into the H-cache through the
	// policy's importance-gated plan-admission path. Reactive deliveries
	// (false) are already policy-resident when enqueued.
	planned bool
}

// prefetcher is the bounded asynchronous prefetch worker pool of the
// serving path. The policy engine's background loader decides *which*
// L-samples enter the cache and *when* (virtual-time package arrivals,
// §III-C); the prefetcher turns each delivery into real bytes: workers pull
// delivered sample IDs off a bounded queue and fill the payload store
// through the same coalesced miss path foreground requests use, so a client
// request that arrives after the worker is done finds the bytes in DRAM.
// Under load that is the rare case: the loader delivers what requests just
// missed, so the request usually gets to the fetch first and the worker's
// turn coalesces with it or is cancelled. On the benchmark's train_epochs
// the outcome ledger reads late 85 %, wasted 10 %, in time 5 % of 217 k
// issued (EXPERIMENTS.md, "On the wire", PR 23).
//
// The pool size is icache.Config.PrefetchWorkers — the paper's Fig. 15
// prefetch-worker knob (-prefetch-workers on cmd/icache-server). It is also
// the bound on background reads: each worker has at most one read waiting
// for or holding one of the backendReadBudget slots.
//
// Concurrency: enqueue is called under policyMu (the loader delivers
// during FetchBatch/StartEpoch), so it must never block — when the queue
// is full the ID is dropped and counted; the sample is then fetched lazily
// on first request, exactly as if prefetching were disabled. Workers run
// with no locks held and share the server's singleflight group, so a
// prefetch and a foreground miss for the same sample coalesce into one
// backend read.
type prefetcher struct {
	s       *Server
	q       chan prefetchItem
	workers int

	wg       sync.WaitGroup
	done     chan struct{}
	stopOnce sync.Once

	queued    int64 // IDs accepted onto the queue (atomic)
	completed int64 // prefetches that finished (bytes stored or already present)
	dropped   int64 // IDs discarded because the queue was full
	failed    int64 // prefetch fetches that errored (sample stays lazy)

	// Prefetch-outcome ledger (the decision-level taxonomy: see
	// metrics.DecisionStats). Every queued ID gets one pending token;
	// whoever removes the token counts the outcome, so each queued
	// prefetch resolves to exactly one of in-time / late / wasted /
	// failed. At an epoch boundary the sweep reclassifies every
	// outstanding token as wasted, which is what makes the ledger balance
	// exactly there:
	//
	//	inTime + late + wasted + failedOutcome == queued
	inTime        int64 // prefetched payload served a request (atomic)
	late          int64 // the foreground beat the worker to the fetch (atomic)
	wasted        int64 // evicted or epoch-swept untouched (atomic)
	failedOutcome int64 // failed fetches that held a pending token (atomic)

	// pending is the token set; pendN mirrors its size atomically so the
	// hot hit path can skip the lock when no prefetch is outstanding.
	// queuedSet tracks IDs sitting in q that no worker has picked up yet;
	// cancelled marks queued entries a demand fetch has promoted past (the
	// foreground is fetching the bytes itself, so the worker turn would be
	// pure duplication — see noteDemand). Both share pendMu.
	pendMu    sync.Mutex
	pending   map[dataset.SampleID]struct{}
	queuedSet map[dataset.SampleID]struct{}
	cancelled map[dataset.SampleID]struct{}
	pendN     int64

	// paused (atomic 0/1) is the brownout switch: while set, enqueue drops
	// every delivery so background backend reads stop competing with
	// overloaded foreground serving. Samples stay lazily fetchable.
	paused int32
}

// newPrefetcher starts a pool of workers. The queue is sized at 64 slots
// per worker: deep enough to absorb a whole package delivery burst
// (packages hold tens of samples), shallow enough that a stalled backend
// cannot pile up unbounded work.
func newPrefetcher(s *Server, workers int) *prefetcher {
	p := &prefetcher{
		s:         s,
		q:         make(chan prefetchItem, workers*64),
		workers:   workers,
		done:      make(chan struct{}),
		pending:   make(map[dataset.SampleID]struct{}),
		queuedSet: make(map[dataset.SampleID]struct{}),
		cancelled: make(map[dataset.SampleID]struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// enqueue offers a delivered sample to the pool. Non-blocking by contract:
// it is invoked under policyMu.
func (p *prefetcher) enqueue(id dataset.SampleID) {
	select {
	case <-p.done:
		return
	default:
	}
	if atomic.LoadInt32(&p.paused) == 1 {
		atomic.AddInt64(&p.dropped, 1)
		return
	}
	if !p.pendAdd(id) {
		// Already pending: a redundant re-delivery of an ID the pool is
		// still working on (or whose bytes already sit untouched in the
		// store). Skip it silently — queueing it again would only burn a
		// worker turn to discover the payload is present.
		return
	}
	it := prefetchItem{id: id}
	if p.s.obs.histsOn() {
		it.at = time.Now()
	}
	p.markQueued(id)
	select {
	case p.q <- it:
		atomic.AddInt64(&p.queued, 1)
	default:
		if p.unqueueFailed(id) {
			atomic.AddInt64(&p.dropped, 1)
		}
	}
}

// enqueuePlanned offers a clairvoyant plan entry to the pool. Unlike
// enqueue it runs on the planner's drain goroutine with no locks held, so
// when the queue is full it WAITS instead of dropping — the full queue is
// what paces the planner to the workers, and dropping entries would punch
// holes in the plan. An ID already holding a pending token is deduped
// silently (the in-flight prefetch or demand fetch covers it). Returns
// false only when the pool or the caller is stopping.
func (p *prefetcher) enqueuePlanned(id dataset.SampleID, stop <-chan struct{}) bool {
	select {
	case <-p.done:
		return false
	default:
	}
	if !p.pendAdd(id) {
		return true
	}
	it := prefetchItem{id: id, planned: true}
	if p.s.obs.histsOn() {
		it.at = time.Now()
	}
	p.markQueued(id)
	select {
	case p.q <- it:
		atomic.AddInt64(&p.queued, 1)
		return true
	case <-p.done:
		p.unqueueFailed(id)
		return false
	case <-stop:
		p.unqueueFailed(id)
		return false
	}
}

// pendAdd grants id a pending token; false when one is already out.
func (p *prefetcher) pendAdd(id dataset.SampleID) bool {
	p.pendMu.Lock()
	if _, ok := p.pending[id]; ok {
		p.pendMu.Unlock()
		return false
	}
	p.pending[id] = struct{}{}
	atomic.AddInt64(&p.pendN, 1)
	p.pendMu.Unlock()
	return true
}

// pendRemove redeems id's pending token; false when it was already
// redeemed (the outcome is then someone else's to count).
func (p *prefetcher) pendRemove(id dataset.SampleID) bool {
	p.pendMu.Lock()
	if _, ok := p.pending[id]; !ok {
		p.pendMu.Unlock()
		return false
	}
	delete(p.pending, id)
	atomic.AddInt64(&p.pendN, -1)
	p.pendMu.Unlock()
	return true
}

// markQueued records that id's item is sitting in q awaiting a worker.
// Called before the channel send so a marker can never outlive its item:
// a failed send removes it via unqueueFailed, a delivered item is consumed
// by the worker's dequeued call.
func (p *prefetcher) markQueued(id dataset.SampleID) {
	p.pendMu.Lock()
	p.queuedSet[id] = struct{}{}
	p.pendMu.Unlock()
}

// unqueueFailed rolls back a markQueued+pendAdd pair after a failed channel
// send, consuming any cancel marker a concurrent noteDemand left. It
// reports whether the pending token was still ours to redeem — false means
// a demand fetch already counted the outcome and the caller must not also
// count a drop.
func (p *prefetcher) unqueueFailed(id dataset.SampleID) bool {
	p.pendMu.Lock()
	delete(p.queuedSet, id)
	delete(p.cancelled, id)
	_, mine := p.pending[id]
	if mine {
		delete(p.pending, id)
		atomic.AddInt64(&p.pendN, -1)
	}
	p.pendMu.Unlock()
	return mine
}

// dequeued records that a worker picked id up, reporting whether a demand
// fetch cancelled the entry while it sat queued (the worker then skips it
// entirely — no existence probe, no backend read).
func (p *prefetcher) dequeued(id dataset.SampleID) bool {
	p.pendMu.Lock()
	delete(p.queuedSet, id)
	_, c := p.cancelled[id]
	if c {
		delete(p.cancelled, id)
	}
	p.pendMu.Unlock()
	return c
}

// noteDemand records that the foreground is about to fetch id itself. If a
// prefetch for it is queued but unstarted, the entry is promoted: the
// demand fetch becomes the one backend read (through the singleflight
// group) and the queued entry is cancelled so its worker turn does not
// re-fetch bytes the demand path already brought in — even if they get
// evicted in between. The token resolves late: the plan existed but the
// foreground beat it.
func (p *prefetcher) noteDemand(id dataset.SampleID) {
	if p == nil || atomic.LoadInt64(&p.pendN) == 0 {
		return
	}
	p.pendMu.Lock()
	_, queued := p.queuedSet[id]
	_, already := p.cancelled[id]
	_, tok := p.pending[id]
	if !queued || already || !tok {
		p.pendMu.Unlock()
		return
	}
	delete(p.pending, id)
	atomic.AddInt64(&p.pendN, -1)
	p.cancelled[id] = struct{}{}
	p.pendMu.Unlock()
	atomic.AddInt64(&p.late, 1)
}

// noteHit records that a local hit served id: if its prefetch token is
// still out, the prefetch arrived in time. The atomic pendN probe keeps
// the hot hit path lock-free whenever nothing is pending.
func (p *prefetcher) noteHit(id dataset.SampleID) {
	if p == nil || atomic.LoadInt64(&p.pendN) == 0 {
		return
	}
	if p.pendRemove(id) {
		atomic.AddInt64(&p.inTime, 1)
	}
}

// noteEvict records that id was evicted: a still-pending token means the
// prefetched bytes were never touched — wasted work. Runs under policyMu
// (the eviction observer); pendMu is a leaf lock.
func (p *prefetcher) noteEvict(id dataset.SampleID) {
	if p == nil || atomic.LoadInt64(&p.pendN) == 0 {
		return
	}
	if p.pendRemove(id) {
		atomic.AddInt64(&p.wasted, 1)
	}
}

// sweepEpoch reclassifies every outstanding pending token as wasted: the
// epoch whose selection wanted those samples is over. Called at the epoch
// boundary under policyMu, which excludes concurrent enqueues (the loader
// delivers under the same lock).
func (p *prefetcher) sweepEpoch() {
	if p == nil {
		return
	}
	p.pendMu.Lock()
	n := len(p.pending)
	if n > 0 {
		p.pending = make(map[dataset.SampleID]struct{})
		atomic.StoreInt64(&p.pendN, 0)
	}
	p.pendMu.Unlock()
	if n > 0 {
		atomic.AddInt64(&p.wasted, int64(n))
	}
}

func (p *prefetcher) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case it := <-p.q:
			p.s.obs.prefetchWt.Since(it.at)
			id := it.id
			if p.dequeued(id) {
				// A demand fetch promoted this entry while it sat queued:
				// the foreground already paid (or is paying) the backend
				// read and counted the token late. Skip entirely — probing
				// or re-fetching here is exactly the double fetch the
				// promotion exists to prevent.
				atomic.AddInt64(&p.completed, 1)
				continue
			}
			// Existence probe only: the worker never touches the bytes, the
			// miss path stores the fetch buffer as it is.
			if p.s.payloads.has(id) {
				// The foreground (or an earlier prefetch) beat us to it.
				if p.pendRemove(id) {
					atomic.AddInt64(&p.late, 1)
				}
				atomic.AddInt64(&p.completed, 1)
				continue
			}
			if it.planned && !p.s.planAdmit(id) {
				// The policy refused the planned sample (demoted out of the
				// H-list since the plan was built, or outranked by every
				// resident): fetching bytes it cannot store would be pure
				// waste. The plan entry is unfulfillable here.
				if p.pendRemove(id) {
					atomic.AddInt64(&p.failedOutcome, 1)
				}
				atomic.AddInt64(&p.failed, 1)
				continue
			}
			if err := p.fetch(id); err != nil {
				// Best effort: a failed prefetch is not a serving error —
				// the sample will be fetched (with retries as configured)
				// when a client actually asks for it.
				if p.pendRemove(id) {
					atomic.AddInt64(&p.failedOutcome, 1)
				}
				atomic.AddInt64(&p.failed, 1)
				continue
			}
			// Success: the token stays out until a hit (in-time), an
			// eviction (wasted) or the epoch sweep (wasted) redeems it.
			atomic.AddInt64(&p.completed, 1)
		}
	}
}

// fetch brings id's bytes in through the miss path every request uses: lead
// the sample's singleflight key and resolve it (peer scatter on a distributed
// server, then the budgeted backend read), or share the fetch a request is
// already running.
func (p *prefetcher) fetch(id dataset.SampleID) error {
	s := p.s
	c, leader := s.flight.Begin(int64(id))
	var tWait time.Time
	if leader {
		// Nobody here reads the bytes: a peer's answer is recycled at once.
		sc := getServeScratch()
		sc.leads = append(sc.leads, missKey{id: id, c: c})
		s.resolveMissBatch(sc, sc.leads, obs.TraceCtx{}, time.Time{}, provPrefetch)
		releaseScratch(sc)
	} else {
		atomic.AddInt64(&s.coalescedMisses, 1)
		if s.obs.histsOn() {
			tWait = time.Now()
		}
	}
	_, err := c.Wait()
	s.obs.sfWait.Since(tWait) // zero unless this turn waited on someone else's fetch
	return err
}

// isPaused reports the brownout switch state (the planner's drain consults
// it so planned backend reads stop competing with overloaded serving).
func (p *prefetcher) isPaused() bool { return atomic.LoadInt32(&p.paused) == 1 }

// setPaused flips the brownout switch (see the paused field).
func (p *prefetcher) setPaused(on bool) {
	var v int32
	if on {
		v = 1
	}
	atomic.StoreInt32(&p.paused, v)
}

// stop terminates the pool and waits for workers to drain. Queued IDs not
// yet picked up are abandoned (server shutdown).
func (p *prefetcher) stop() {
	p.stopOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}

// depth reports the current queue backlog (gauge).
func (p *prefetcher) depth() int { return len(p.q) }
