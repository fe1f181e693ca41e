package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/obs"
)

// prefetchItem is one queued plan entry: the sample, its enqueue instant (zero
// unless stage histograms are enabled, so the worker records the
// prefetch_queue_wait stage without any clock read on the disabled path), and
// gen, the plan generation it was queued in. The worker first admits the
// sample into the H-cache through the policy's importance-gated
// plan-admission path.
type prefetchItem struct {
	id  dataset.SampleID
	at  time.Time
	gen uint64
}

// entryState is where an id with an entry is: waiting in the queue, promoted
// past by a demand fetch while waiting (its worker turn is skipped), or held
// by a worker.
type entryState uint8

const (
	entryQueued entryState = iota + 1
	entryCancelled
	entryRunning
)

// prefetcher is the serving path's one prefetcher: a queue of clairvoyant
// plan entries and the worker pool that drains it. A plan (plan.go) queues
// its epoch's missing H-samples whole, in first-access order, before the
// boundary is answered, and a peer's pre-placed entries join it; nothing else
// queues. So a server no client sends a plan to prefetches nothing — its
// L-samples get their bytes on first request, and which of them are resident
// stays the policy engine's decision. Workers turn entries into real bytes
// through the coalesced miss path foreground requests use, so a request that
// arrives after the worker is done finds the bytes in DRAM.
//
// The pool has one worker per backendReadBudget slot and no size of its own:
// the read budget is the one bound on planned reads, which take slots in
// arrival order with the demand reads. Idle workers park on wake.
//
// Concurrency: mu is a leaf lock (policyMu → mu is legal, never the
// reverse), never held across I/O. While the overload gate has the pool
// paused (Brownout) the workers take nothing; queued entries wait and resume
// when the gate clears. Workers share the server's singleflight group, so a
// prefetch and a foreground miss for one sample coalesce into one backend
// read.
type prefetcher struct {
	s  *Server
	wg sync.WaitGroup

	mu              sync.Mutex
	wake            sync.Cond // on mu: an entry was queued, the pause lifted or the pool stopped
	queue           []prefetchItem
	paused, stopped bool
	// state holds every id queued or held by a worker (one entry per id);
	// pending holds the outcome ledger's tokens, pendN mirroring its size
	// atomically so the hot hit path skips the lock when none is out.
	state   map[dataset.SampleID]entryState
	pending map[dataset.SampleID]struct{}
	pendN   atomic.Int64

	// gen is the current plan's generation, opened by each boundary's sweep;
	// plan is its progress and the cumulative plan counters (Remaining is
	// derived on read; see Server.PlanStats).
	gen  uint64
	plan PlanStats

	// Prefetch-outcome ledger (on mu; see metrics.DecisionStats). Every queued
	// entry gets one pending token, and whoever removes the token counts the
	// outcome in the same critical section: a hit (in time), a demand fetch
	// that got there first (late), an eviction or the epoch sweep (wasted), a
	// refused or failed fetch (dropped). So every reading (see ledger)
	// balances with the tokens still out:
	//
	//	inTime + late + wasted + dropped + len(pending) == issued
	issued, inTime, late, wasted, dropped int64
}

// newPrefetcher starts a pool of workers.
func newPrefetcher(s *Server, workers int) *prefetcher {
	p := &prefetcher{
		s:       s,
		gen:     1,
		state:   make(map[dataset.SampleID]entryState),
		pending: make(map[dataset.SampleID]struct{}),
	}
	p.wake.L = &p.mu
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// addPlan queues plan entries whole, in first-access order, behind whatever
// is queued, and returns how many it queued. Every entry joins the generation
// the last boundary's sweep opened: a node's own plan (next carries its epoch
// and build counters) and a peer's pre-placed entries (next == nil) alike, so
// neither supersedes the other. A plan whose build a later boundary overtook
// is dropped: its epoch is already over.
func (p *prefetcher) addPlan(ids []dataset.SampleID, next *PlanStats) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if next != nil {
		if next.Epoch < p.plan.Epoch {
			return 0
		}
		p.plan.SkippedResident += next.SkippedResident
		p.plan.SkippedCluster += next.SkippedCluster
		p.plan.PreplaceSent += next.PreplaceSent
		p.plan.Reroutes += next.Reroutes
	}
	n := 0
	for _, id := range ids {
		if p.fresh(id) {
			p.add(id)
			n++
		}
	}
	p.plan.Planned += int64(n)
	if next == nil {
		p.plan.PreplaceRecv += int64(n)
	}
	return n
}

// fresh reports whether id may be queued: the pool is running and id has no
// entry and no pending token (an in-flight or queued prefetch, or bytes
// already sitting untouched in the store, cover a redundant offer). Caller
// holds mu.
func (p *prefetcher) fresh(id dataset.SampleID) bool {
	_, tok := p.pending[id]
	return !p.stopped && p.state[id] == 0 && !tok
}

// add queues id as an entry of the current generation and grants it a
// pending token. Caller holds mu and has checked fresh.
func (p *prefetcher) add(id dataset.SampleID) {
	it := prefetchItem{id: id, gen: p.gen}
	if p.s.obs.histsOn() {
		it.at = time.Now()
	}
	p.queue = append(p.queue, it)
	p.state[id] = entryQueued
	p.pending[id] = struct{}{}
	p.pendN.Add(1)
	p.issued++
	p.wake.Signal()
}

// redeem removes id's pending token and counts the outcome in ctr, reporting
// whether a token was out (false: the outcome is someone else's to count).
// Caller holds mu.
func (p *prefetcher) redeem(id dataset.SampleID, ctr *int64) bool {
	if _, ok := p.pending[id]; !ok {
		return false
	}
	delete(p.pending, id)
	p.pendN.Add(-1)
	*ctr++
	return true
}

// resolve is redeem for a caller not holding mu.
func (p *prefetcher) resolve(id dataset.SampleID, ctr *int64) {
	p.mu.Lock()
	p.redeem(id, ctr)
	p.mu.Unlock()
}

// ledger reads the outcome ledger into d and returns the tokens still out,
// all in one critical section: inTime+late+wasted+dropped+outstanding ==
// issued in every reading. Right after a planned boundary, outstanding is
// the new plan's entries.
func (p *prefetcher) ledger(d *metrics.DecisionStats) (outstanding int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d.PrefetchIssued, d.PrefetchInTime, d.PrefetchLate = p.issued, p.inTime, p.late
	d.PrefetchWasted, d.PrefetchDropped = p.wasted, p.dropped
	return int64(len(p.pending))
}

// noteDemand records that a demand miss on id is about to lead its fetch or
// has joined the call someone else leads. A prefetch entry of id still
// holding its token resolves late — the prefetch existed, the foreground got
// there first: a demand that joined the fetch a worker leads waits on that
// read, and a queued-but-unstarted entry is promoted — this demand fetch
// becomes the one backend read (through the singleflight group) and the entry
// is cancelled, so its worker turn does not re-fetch bytes the demand path
// already brought in, even if they get evicted in between.
func (p *prefetcher) noteDemand(id dataset.SampleID) {
	if p.pendN.Load() == 0 {
		return
	}
	p.mu.Lock()
	st := p.state[id]
	if (st == entryQueued || st == entryRunning) && p.redeem(id, &p.late) && st == entryQueued {
		p.state[id] = entryCancelled
	}
	p.mu.Unlock()
}

// noteHit records that a local hit served id: if its prefetch token is still
// out, the prefetch arrived in time. The atomic pendN probe keeps the hot hit
// path lock-free whenever nothing is pending.
func (p *prefetcher) noteHit(id dataset.SampleID) {
	if p.pendN.Load() != 0 {
		p.resolve(id, &p.inTime)
	}
}

// noteEvict records that id was evicted: a still-pending token means the
// prefetched bytes were never touched — wasted work. Runs under policyMu
// (the eviction observer).
func (p *prefetcher) noteEvict(id dataset.SampleID) {
	if p.pendN.Load() != 0 {
		p.resolve(id, &p.wasted)
	}
}

// sweepEpoch ends the finished epoch's plan at a boundary, under policyMu:
// it drops every unstarted entry, books every outstanding pending token
// wasted (the epoch whose selection wanted those samples is over) and opens
// the new epoch's generation, empty. The plan built for the new epoch, and a
// peer's entries accepted while it builds, join that generation; an entry a
// worker already holds finishes, its outcome swept.
func (p *prefetcher) sweepEpoch(epoch int64) {
	p.mu.Lock()
	for _, it := range p.queue {
		delete(p.state, it.id)
	}
	p.queue = p.queue[:0]
	p.wasted += int64(len(p.pending))
	clear(p.pending)
	p.pendN.Store(0)
	p.gen++
	p.plan.Epoch, p.plan.Planned, p.plan.Completed = epoch, 0, 0
	p.mu.Unlock()
}

// worker takes entries off the front of the queue until the pool stops.
func (p *prefetcher) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.stopped && (p.paused || len(p.queue) == 0) {
			p.wake.Wait()
		}
		if p.stopped {
			return
		}
		it := p.queue[0]
		p.queue = p.queue[1:]
		// A cancelled entry was promoted by a demand fetch while it sat
		// queued: the foreground already paid (or is paying) the backend read
		// and counted the token late, so probing or re-fetching here is
		// exactly the double fetch the promotion exists to prevent.
		run := p.state[it.id] != entryCancelled
		p.state[it.id] = entryRunning
		p.mu.Unlock()
		p.s.obs.prefetchWt.Since(it.at)
		if run {
			p.turn(it.id)
		}
		p.mu.Lock()
		delete(p.state, it.id)
		p.plan.CompletedTotal++
		if it.gen == p.gen {
			p.plan.Completed++
		}
	}
}

// turn is one worker turn on an entry, with no lock held. On success the
// token stays out until a hit (in time), an eviction or the epoch sweep
// (wasted), or a demand that joined this fetch (late) redeems it.
func (p *prefetcher) turn(id dataset.SampleID) {
	switch {
	case p.s.payloads.has(id):
		// Existence probe only — the foreground (or an earlier prefetch)
		// beat us to it.
		p.resolve(id, &p.late)
	case !p.s.planAdmit(id):
		// The policy refused the planned sample (demoted out of the H-list
		// since the plan was built, or outranked by every resident): fetching
		// bytes it cannot store would be pure waste.
		p.resolve(id, &p.dropped)
	case p.fetch(id) != nil:
		// Best effort: a failed prefetch is not a serving error — the sample
		// is fetched (with retries as configured) when a client asks for it.
		p.resolve(id, &p.dropped)
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

// setPaused flips the brownout switch: while set, the workers take nothing,
// so background backend reads stop competing with overloaded foreground
// serving; queued entries wait for the gate to clear.
func (p *prefetcher) setPaused(on bool) {
	p.mu.Lock()
	p.paused = on
	p.mu.Unlock()
	p.wake.Broadcast()
}

// stop terminates the pool and waits for workers to finish their entries.
// Queued entries are abandoned (server shutdown).
func (p *prefetcher) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.wake.Broadcast()
	p.wg.Wait()
}

// depth reports the current queue backlog (gauge).
func (p *prefetcher) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}
