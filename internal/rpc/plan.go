package rpc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/obs"
)

// Clairvoyant prefetch planner (NoPFS applied to the byte-serving path).
//
// The IIS sampler draws an epoch's schedule before the epoch begins, so at
// every epoch boundary the future access sequence is known. A clairvoyant
// client pushes it over opEpochPlan; the policy engine classifies it
// (PlanSchedule: L-samples seed the loader, missing H-samples come back in
// first-access order) and the planner turns the H side into pre-placed
// bytes:
//
//  1. Diff against residency: locally present payloads are skipped
//     outright, then ONE batched directory sweep (dirLookupBatch, chunked)
//     drops every sample a live peer already owns — the cluster never
//     fetches a byte it already holds.
//  2. Route by future ownership: unowned samples are assigned their future
//     owner by rendezvous hash over the membership. Entries routed to a
//     peer ship in opPlanPreplace batches and join the PEER's plan (it
//     admits and fetches them itself, claiming directory ownership exactly
//     as a demand fetch would). A failed pre-place RPC falls back to the
//     local queue, and on the NEXT epoch's residency sweep the plan
//     re-routes around the dead node — the directory shows its entries
//     gone.
//  3. Drain in first-access order into the prefetch pool, whose bounded
//     queue blocks the drain once every worker is busy: planned reads are
//     bounded the way every other read is — at most PrefetchWorkers of them
//     wait for or hold one of the backendReadBudget slots, in arrival order
//     with the demand reads — and have no pacing of their own (DESIGN.md,
//     "Bounded drain"). The drain pauses while the overload gate has the
//     prefetch pool in Brownout, and every entry resolves through the
//     prefetch pool's pending-token ledger — in_time+late+wasted+dropped ==
//     issued stays exact with the planner on.
//
// Demand fetches that overtake a queued plan entry promote it: the
// foreground read becomes the one backend fetch (singleflight already
// coalesces in-flight ones; prefetcher.noteDemand cancels queued-unstarted
// ones), so the backend never pays twice for one miss.

// planPreplaceChunk is how many ids one opPlanPreplace request carries.
const planPreplaceChunk = 2048

// planLookupChunk bounds one directory residency-sweep call.
const planLookupChunk = 8192

type planner struct {
	s *Server

	// mu guards the plan state below. Never held across I/O: the drain
	// goroutine takes raw/queue items out under mu and works outside it.
	mu    sync.Mutex
	gen   uint64             // bumped by install; stale builds/completions are discarded
	epoch int64              // epoch the current plan was installed for
	raw   []dataset.SampleID // installed but not yet built (diffed/routed)
	queue []dataset.SampleID // built local plan, first-access order, drained from the front
	busy  bool               // drain goroutine holds work outside raw/queue (a build or an in-flight entry)

	// Current-epoch progress gauges (atomics; reset by install).
	planned   int64
	completed int64

	// Cumulative counters (atomics).
	entriesTotal    int64
	completedTotal  int64
	skippedResident int64
	skippedCluster  int64
	preplaceSent    int64
	preplaceRecv    int64
	reroutes        int64

	kick     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// SetClairvoyant enables the clairvoyant planner. Must be called before
// Serve. The planner drains through the prefetch worker pool, so it
// requires PrefetchWorkers > 0 on the policy config; with the pool
// disabled the call logs and leaves the server reactive.
func (s *Server) SetClairvoyant() {
	if s.prefetch == nil {
		if s.Logf != nil {
			s.Logf("rpc: clairvoyant planning requires prefetch workers (PrefetchWorkers > 0); staying reactive")
		}
		return
	}
	p := &planner{
		s:      s,
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.run()
	s.plan = p
}

// Clairvoyant reports whether the planner is enabled.
func (s *Server) Clairvoyant() bool { return s.plan != nil }

// planAdmit runs the policy's plan-admission path for one planned H-sample
// (see icache.Server.PlanAdmitH) under the policy lock.
func (s *Server) planAdmit(id dataset.SampleID) bool {
	s.policyMu.Lock()
	ok := s.cache.PlanAdmitH(id)
	s.policyMu.Unlock()
	return ok
}

// install replaces the plan with a new epoch's missing-H sequence (already
// deduplicated, policy-filtered and in first-access order by
// icache.Server.PlanSchedule). Entries of the previous epoch still queued
// are discarded — their epoch's selection no longer wants them.
func (p *planner) install(epoch int64, ids []dataset.SampleID) {
	p.mu.Lock()
	p.gen++
	p.epoch = epoch
	p.raw = ids
	p.queue = nil
	atomic.StoreInt64(&p.planned, 0)
	atomic.StoreInt64(&p.completed, 0)
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// acceptRemote folds pre-placed entries from a peer's planner into this
// node's current plan: the sender decided (by rendezvous over the
// membership) that WE are these samples' future owner. Returns how many
// entries were accepted.
func (p *planner) acceptRemote(ids []dataset.SampleID) int {
	spec := p.s.source.Spec()
	accepted := ids[:0:0]
	for _, id := range ids {
		if !spec.Contains(id) || p.s.payloads.has(id) {
			continue
		}
		accepted = append(accepted, id)
	}
	if len(accepted) == 0 {
		return 0
	}
	p.mu.Lock()
	p.queue = append(p.queue, accepted...)
	atomic.AddInt64(&p.planned, int64(len(accepted)))
	p.mu.Unlock()
	atomic.AddInt64(&p.preplaceRecv, int64(len(accepted)))
	atomic.AddInt64(&p.entriesTotal, int64(len(accepted)))
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return len(accepted)
}

// run is the drain goroutine: it builds freshly installed plans (residency
// diff + ownership routing, all outside planner locks) and drains the
// local queue in first-access order.
func (p *planner) run() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if p.raw != nil {
			raw, gen := p.raw, p.gen
			p.raw, p.busy = nil, true
			p.mu.Unlock()
			p.build(raw, gen)
			p.setBusy(false)
			continue
		}
		var (
			id  dataset.SampleID
			gen uint64
			ok  bool
		)
		if len(p.queue) > 0 {
			id, p.queue = p.queue[0], p.queue[1:]
			gen, ok = p.gen, true
			p.busy = true
		}
		p.mu.Unlock()
		if !ok {
			select {
			case <-p.kick:
				continue
			case <-p.stopCh:
				return
			}
		}
		if !p.drainOne(id, gen) {
			return
		}
		p.setBusy(false)
	}
}

// build diffs a raw plan against residency and routes it: local payloads
// and cluster-resident samples are dropped, the remainder is routed by
// rendezvous to its future owner. Runs with no locks held (the directory
// sweep and pre-place RPCs are real I/O); a concurrent install supersedes
// the build, which is then discarded.
func (p *planner) build(raw []dataset.SampleID, gen uint64) {
	s := p.s
	missing := raw[:0:0]
	for _, id := range raw {
		if s.payloads.has(id) {
			atomic.AddInt64(&p.skippedResident, 1)
			continue
		}
		missing = append(missing, id)
	}

	local := missing
	if dist := s.dist; dist != nil && len(missing) > 0 {
		local = missing[:0:0]
		// One batched residency sweep over the directory (chunked): a
		// sample a LIVE peer owns is cluster-resident and needs no fetch —
		// the peer data plane serves it. Entries of dead nodes have been
		// purged by the membership plane, so they show up as unowned here,
		// which is exactly what re-routes a broken plan on the next sweep.
		owners := make([]dkv.Owner, 0, len(missing))
		swept := true
		for off := 0; off < len(missing); off += planLookupChunk {
			end := off + planLookupChunk
			if end > len(missing) {
				end = len(missing)
			}
			chunk := s.dirLookupBatch(dist, missing[off:end], obs.TraceCtx{}, time.Time{})
			if chunk == nil {
				swept = false
				break
			}
			owners = append(owners, chunk...)
		}
		if !swept {
			// Directory unavailable: plan everything locally; the admit
			// path's claim race still keeps the cluster duplicate-free.
			local = missing
		} else {
			peerIDs := dist.peerNodeIDs()
			route := make(map[dkv.NodeID][]dataset.SampleID)
			for i, id := range missing {
				if owners[i].Found && owners[i].Node != dist.nodeID {
					atomic.AddInt64(&p.skippedCluster, 1)
					continue
				}
				owner := rendezvousOwner(id, dist.nodeID, peerIDs)
				if owner == dist.nodeID {
					local = append(local, id)
					continue
				}
				route[owner] = append(route[owner], id)
			}
			local = p.preplace(route, local)
		}
	}

	p.mu.Lock()
	if p.gen != gen {
		p.mu.Unlock()
		return // superseded by a newer install
	}
	p.queue = append(p.queue, local...)
	atomic.AddInt64(&p.planned, int64(len(local)))
	p.mu.Unlock()
	atomic.AddInt64(&p.entriesTotal, int64(len(local)))
}

// preplace ships each future owner its plan entries in opPlanPreplace
// chunks, in a deterministic node order. Entries a peer rejects (already
// resident there) are done; entries that fail to ship re-route to the
// local queue — this node fetches them itself rather than dropping plan
// coverage.
func (p *planner) preplace(route map[dkv.NodeID][]dataset.SampleID, local []dataset.SampleID) []dataset.SampleID {
	nodes := make([]dkv.NodeID, 0, len(route))
	for n := range route {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		ids := route[n]
		for off := 0; off < len(ids); off += planPreplaceChunk {
			end := off + planPreplaceChunk
			if end > len(ids) {
				end = len(ids)
			}
			chunk := ids[off:end]
			select {
			case <-p.stopCh:
				return local
			default:
			}
			c, err := p.s.dist.peer(n)
			if err == nil {
				var accepted int
				accepted, err = c.PlanPreplace(chunk)
				if err == nil {
					atomic.AddInt64(&p.preplaceSent, int64(accepted))
					continue
				}
				if isConnFailure(err) {
					p.s.dist.dropPeer(n, c)
				}
			}
			// Unreachable owner: fall back to fetching locally. The next
			// epoch's residency sweep sees whatever the cluster actually
			// holds and re-routes accordingly.
			atomic.AddInt64(&p.reroutes, int64(len(chunk)))
			local = append(local, chunk...)
		}
	}
	return local
}

// drainOne hands one plan entry to the prefetch pool, waiting while the pool
// is paused or its queue is full. Returns false only when the planner is
// stopping.
func (p *planner) drainOne(id dataset.SampleID, gen uint64) bool {
	// Brownout: the overload gate paused the prefetch pool, so planned
	// backend reads must stop competing with overloaded serving. Wait it
	// out rather than dropping — the plan resumes when the gate recovers.
	for p.s.prefetch.isPaused() {
		select {
		case <-p.stopCh:
			return false
		case <-time.After(5 * time.Millisecond):
		}
		if p.stale(gen) {
			return true
		}
	}
	if p.stale(gen) {
		return true
	}
	if p.s.payloads.has(id) {
		p.complete(gen)
		return true
	}
	if !p.s.prefetch.enqueuePlanned(id, p.stopCh) {
		return false
	}
	p.complete(gen)
	return true
}

// setBusy flips the in-flight marker the drain loop sets while it holds
// work outside raw/queue, so introspection can tell an idle planner from
// one mid-build or mid-entry.
func (p *planner) setBusy(v bool) {
	p.mu.Lock()
	p.busy = v
	p.mu.Unlock()
}

// stale reports whether a newer plan replaced the one entry id came from.
func (p *planner) stale(gen uint64) bool {
	p.mu.Lock()
	s := p.gen != gen
	p.mu.Unlock()
	return s
}

// complete advances the current epoch's progress gauge (stale completions
// belong to a superseded plan whose gauges were already reset).
func (p *planner) complete(gen uint64) {
	p.mu.Lock()
	if p.gen == gen {
		atomic.AddInt64(&p.completed, 1)
	}
	p.mu.Unlock()
	atomic.AddInt64(&p.completedTotal, 1)
}

// stop terminates the drain goroutine. Queued plan entries are abandoned
// (server shutdown).
func (p *planner) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.wg.Wait()
}

// rendezvousOwner picks id's future owner by highest-random-weight hashing
// over this node and its peers: every node computes the same answer from
// the same membership, with no coordination.
func rendezvousOwner(id dataset.SampleID, self dkv.NodeID, peers []dkv.NodeID) dkv.NodeID {
	best, bestW := self, planWeight(self, id)
	for _, n := range peers {
		if w := planWeight(n, id); w > bestW || (w == bestW && n > best) {
			best, bestW = n, w
		}
	}
	return best
}

// planWeight is a splitmix64-style mix of (node, sample).
func planWeight(n dkv.NodeID, id dataset.SampleID) uint64 {
	x := uint64(n)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}

// peerNodeIDs lists the other nodes in the static address book, sorted —
// the rendezvous membership this node hashes over.
func (d *distState) peerNodeIDs() []dkv.NodeID {
	out := make([]dkv.NodeID, 0, len(d.peerAddrs))
	for n := range d.peerAddrs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PlanStats is the planner's introspection snapshot (zero when the planner
// is disabled).
type PlanStats struct {
	Epoch           int64
	Planned         int64 // entries admitted to the current epoch's plan
	Completed       int64 // current-epoch entries drained (handed to the pool or already resident)
	Remaining       int64 // Planned - Completed
	EntriesTotal    int64
	CompletedTotal  int64
	SkippedResident int64 // plan entries whose bytes were already local
	SkippedCluster  int64 // plan entries a live peer already owned
	PreplaceSent    int64 // entries accepted by future owners
	PreplaceRecv    int64 // entries accepted FROM peers into our plan
	Reroutes        int64 // entries re-routed locally after a failed pre-place
}

// PlanStats reports the planner's progress and counters.
func (s *Server) PlanStats() PlanStats {
	p := s.plan
	if p == nil {
		return PlanStats{}
	}
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	planned := atomic.LoadInt64(&p.planned)
	completed := atomic.LoadInt64(&p.completed)
	return PlanStats{
		Epoch:           epoch,
		Planned:         planned,
		Completed:       completed,
		Remaining:       planned - completed,
		EntriesTotal:    atomic.LoadInt64(&p.entriesTotal),
		CompletedTotal:  atomic.LoadInt64(&p.completedTotal),
		SkippedResident: atomic.LoadInt64(&p.skippedResident),
		SkippedCluster:  atomic.LoadInt64(&p.skippedCluster),
		PreplaceSent:    atomic.LoadInt64(&p.preplaceSent),
		PreplaceRecv:    atomic.LoadInt64(&p.preplaceRecv),
		Reroutes:        atomic.LoadInt64(&p.reroutes),
	}
}
