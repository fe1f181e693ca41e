package rpc

// Tests for the clairvoyant prefetch plan: the demand-promotion pin (a
// planned entry overtaken by a foreground request must not cost a second
// backend read), a demand that joins a prefetch in flight booking it late,
// the prefetch-outcome conservation identity with plans across epoch
// boundaries, Brownout holding every queued entry, a boundary ending the
// finished epoch's plan (and only it), and the chaos path where a plan's
// future owner dies mid-plan and the next residency sweep re-routes around
// it.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/overload"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/vt"
)

// startPlanTestServer boots an all-H serving stack (L-cache off) whose
// prefetch pool has the given number of workers (0 keeps one per read slot).
func startPlanTestServer(t *testing.T, src ByteSource, workers int) (*Server, string) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	ccfg := icache.DefaultConfig(spec.TotalBytes() / 5)
	ccfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, ccfg, sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		src = source
	}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	if workers > 0 {
		withWorkers(srv, workers)
	}
	return srv, serveOn(t, srv)
}

// withWorkers gives an unserved srv a prefetch pool of n workers in place of
// its one per read slot: a test that holds one worker mid-fetch needs the
// rest of the plan to wait behind it.
func withWorkers(srv *Server, n int) {
	srv.prefetch.stop()
	srv.prefetch = newPrefetcher(srv, n)
}

// waitPlanSettled waits for a bubble's quiet point and fails unless the
// prefetch queue is empty there and no worker is mid-entry — the state in
// which a subsequent epoch boundary observes an exactly balanced ledger.
// Every entry whose read does not sleep has settled by then.
func waitPlanSettled(t testing.TB, srv *Server) {
	t.Helper()
	vt.Wait()
	p := srv.prefetch
	p.mu.Lock()
	held := len(p.state) // entries queued or mid-fetch
	p.mu.Unlock()
	if held != 0 {
		t.Fatalf("prefetch queue not settled at a quiet point: %d entries queued or mid-fetch, plan %+v", held, srv.PlanStats())
	}
}

// crossBoundary settles the pool, crosses an epoch boundary with cross and
// pins what the boundary did to the prefetch-outcome ledger, read on either
// side of it: the sweep booked wasted exactly the tokens the finished epoch
// left out, and every token out after it is one the boundary itself issued
// (the loader catch-up's deliveries, the plan's entries). So the finished
// epoch closes with in_time+late+wasted+dropped == issued exactly, and where
// the boundary issues nothing that is the whole ledger. A token leaked past
// the sweep, or a new epoch's prefetch booked as the old one's waste, fails
// it. Returns the ledger after the boundary and the tokens then out.
func crossBoundary(t *testing.T, srv *Server, when string, cross func() error) (d metrics.DecisionStats, outstanding int64) {
	t.Helper()
	waitPlanSettled(t, srv)
	var before metrics.DecisionStats
	left := srv.prefetch.ledger(&before)
	if err := cross(); err != nil {
		t.Fatal(err)
	}
	outstanding = srv.prefetch.ledger(&d)
	if swept := d.PrefetchWasted - before.PrefetchWasted; swept != left {
		t.Fatalf("boundary %s booked %d prefetches wasted; want the %d the finished epoch left out", when, swept, left)
	}
	if issued := d.PrefetchIssued - before.PrefetchIssued; outstanding > issued {
		t.Fatalf("boundary %s left %d prefetch tokens out; it issued only %d", when, outstanding, issued)
	}
	return d, outstanding
}

// TestPlanPromotionNoDoubleFetch pins the promotion contract: a demand
// fetch that overtakes a queued-but-unstarted planned prefetch becomes THE
// backend read for that sample — the worker's later turn skips the
// cancelled entry entirely, so the backend sees at most one fetch per
// unique miss, and the pending token resolves late (the plan existed, the
// foreground beat it).
func TestPlanPromotionNoDoubleFetch(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const plug, target = dataset.SampleID(3), dataset.SampleID(7)
		g := newHeldSource(t, nil, plug)
		// One worker: while it is held inside plug's fetch, target's planned
		// entry sits queued and unstarted — the plan was queued whole before the
		// boundary was answered.
		srv, addr := startPlanTestServer(t, g, 1)
		t.Cleanup(g.open) // never leave the worker blocked on a failed test

		cl := dial(t, addr)
		items := []sampling.Item{{ID: plug, IV: 10}, {ID: target, IV: 9}}
		if err := cl.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpochPlan(1, []dataset.SampleID{plug, target}); err != nil {
			t.Fatal(err)
		}
		g.awaitEntered(t)

		// Demand-fetch the queued-but-unstarted sample: this promotes the plan
		// entry (cancelling its worker turn) and pays the one backend read.
		samples, err := cl.GetBatch([]dataset.SampleID{target})
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 1 || samples[0].ID != target {
			t.Fatalf("demand fetch of %d returned %v", target, samples)
		}
		if got := g.count(target); got != 1 {
			t.Fatalf("backend fetched sample %d %d times during the demand read; want exactly 1", target, got)
		}

		g.open()
		// The worker finishes plug, then dequeues target's cancelled entry and
		// must skip it without touching the backend.
		waitPlanSettled(t, srv)
		if got := g.count(target); got != 1 {
			t.Fatalf("backend fetched sample %d %d times; the cancelled plan entry re-fetched it", target, got)
		}
		if got := g.count(plug); got != 1 {
			t.Fatalf("backend fetched sample %d %d times; want exactly 1", plug, got)
		}

		// Cross and pin the ledger: target resolved late (promoted), plug's
		// token sweeps as wasted, nothing double-counted.
		d, _ := crossBoundary(t, srv, "after promotion", func() error { return cl.BeginEpoch(2) })
		if d.PrefetchLate != 1 || d.PrefetchWasted != 1 || d.PrefetchIssued != 2 {
			t.Fatalf("ledger issued %d, late %d, wasted %d; want 2, the promoted entry late and plug wasted",
				d.PrefetchIssued, d.PrefetchLate, d.PrefetchWasted)
		}
	})
}

// TestPlanJoinedPrefetchIsLate: a demand that joins the fetch a prefetch
// worker is running waits on that read — the prefetch came too late to serve
// it, so its token resolves late at the join, and the next boundary's sweep
// does not book it wasted.
func TestPlanJoinedPrefetchIsLate(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const plug, mark = dataset.SampleID(3), dataset.SampleID(9)
		inner, err := storage.NewDataSource(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		// A request Begins every one of its keys before it fetches any, so mark
		// entering Fetch proves the request has already joined plug's call.
		marked := &faultySource{inner: inner, bad: -1, mark: mark, marked: make(chan struct{})}
		g := newHeldSource(t, marked, plug)
		srv, addr := startPlanTestServer(t, g, 1)
		t.Cleanup(g.open)

		cl := dial(t, addr)
		if err := cl.UpdateImportance([]sampling.Item{{ID: plug, IV: 10}, {ID: mark, IV: 9}}); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpochPlan(1, []dataset.SampleID{plug}); err != nil {
			t.Fatal(err)
		}
		g.awaitEntered(t)
		done := make(chan error, 1)
		go func() { _, err := cl.GetBatch([]dataset.SampleID{plug, mark}); done <- err }()
		select {
		case <-marked.marked:
		case <-time.After(10 * time.Second):
			t.Fatal("the demand request never reached the backend")
		}
		g.open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		waitPlanSettled(t, srv)
		if got := g.count(plug); got != 1 {
			t.Fatalf("backend fetched sample %d %d times; the demand must share the worker's read", plug, got)
		}
		d, _ := crossBoundary(t, srv, "after a joined prefetch", func() error { return cl.BeginEpoch(2) })
		if d.PrefetchLate != 1 || d.PrefetchWasted != 0 || d.PrefetchInTime != 0 {
			t.Fatalf("ledger in-time %d, late %d, wasted %d; want the joined prefetch late (0, 1, 0)",
				d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted)
		}
	})
}

// TestPlanConservationAcrossEpochs drives two planned epochs (with partial
// selection overlap, as IIS re-draws produce) plus demand traffic over the
// pre-placed set, and pins that the plan (a) actually pre-places every
// missing scheduled H-sample and (b) leaves the prefetch-outcome identity
// exactly balanced at every boundary it crosses.
func TestPlanConservationAcrossEpochs(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		srv, addr := startPlanTestServer(t, nil, 0)
		cl := dial(t, addr)
		spec := testSpec()

		const universe = 240
		ids := make([]dataset.SampleID, universe)
		items := make([]sampling.Item, universe)
		for i := range ids {
			ids[i] = dataset.SampleID(i)
			items[i] = sampling.Item{ID: ids[i], IV: float64(universe - i)}
		}
		if err := cl.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}

		getAll := func(sel []dataset.SampleID) {
			t.Helper()
			for off := 0; off < len(sel); off += 16 {
				end := off + 16
				if end > len(sel) {
					end = len(sel)
				}
				samples, err := cl.GetBatch(sel[off:end])
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range samples {
					if s.ID != sel[off+i] {
						t.Fatalf("H-sample %d substituted with %d", sel[off+i], s.ID)
					}
					if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		waitResident := func(sel []dataset.SampleID) {
			t.Helper()
			waitPlanSettled(t, srv)
			for _, id := range sel {
				if !srv.payloads.has(id) {
					t.Fatalf("plan settled with sample %d not pre-placed (%+v)", id, srv.PlanStats())
				}
			}
		}

		// Epoch 1: plan the first 160 samples, let the pool place them, then
		// read a slice of them — those reads must be in-time prefetch hits.
		crossBoundary(t, srv, "into plan 1", func() error { return cl.BeginEpochPlan(1, ids[:160]) })
		waitResident(ids[:160])
		baseMisses := cacheStats(srv).Misses
		getAll(ids[:64])
		if d := cacheStats(srv).Misses - baseMisses; d != 0 {
			t.Fatalf("reads of pre-placed samples missed %d times; want pure hits", d)
		}

		// Epoch 2: the selection shifts (half overlap) — only the truly missing
		// tail needs fetching, the overlap is already resident.
		crossBoundary(t, srv, "into plan 2", func() error { return cl.BeginEpochPlan(2, ids[80:240]) })
		waitResident(ids[80:240])
		getAll(ids[120:184])

		// Settle: the final boundary sweeps outstanding tokens; the identity
		// must hold exactly, with real in-time outcomes recorded.
		d, outstanding := crossBoundary(t, srv, "after plans", func() error { return cl.BeginEpoch(3) })
		if outstanding != 0 {
			t.Fatalf("%d prefetch tokens out after the boundary; nothing but a plan queues here", outstanding)
		}
		if d.PrefetchIssued == 0 {
			t.Fatal("the plans issued no prefetches")
		}
		if d.PrefetchInTime == 0 {
			t.Fatal("no planned prefetch was consumed in time")
		}
		if ps := srv.PlanStats(); ps.CompletedTotal != d.PrefetchIssued {
			t.Fatalf("plan entries leaked: completed %d of %d queued", ps.CompletedTotal, d.PrefetchIssued)
		}
	})
}

// TestPlanBrownoutHoldsTheQueue walks the overload gate into Brownout: a plan
// is queued whole, beside the one package the boundary composed, and causes
// no backend read while the gate holds. Back in Normal the paused workers
// resume, the plan and the package drain, and the ledger balances exactly at
// the next boundary.
func TestPlanBrownoutHoldsTheQueue(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		g := newHeldSource(t, nil, holdNone)
		srv := newUnstartedServer(t, g)
		gate := overload.NewGate(overload.GateConfig{TargetDelay: time.Millisecond})
		srv.SetAdmission(gate)
		// The ladder is driven on a clock an hour ahead, so the test's own
		// requests (whose instants fall before the window ends) never roll it;
		// the second observation lands past the gate's 100 ms window.
		at := time.Now().Add(time.Hour)
		gate.Observe(at, 5*time.Millisecond)
		gate.Observe(at.Add(101*time.Millisecond), 5*time.Millisecond)
		if st := gate.State(); st != overload.Brownout {
			t.Fatalf("gate is %v; want brownout", st)
		}
		cl := dial(t, serveOn(t, srv))

		ids := make([]dataset.SampleID, 32)
		items := make([]sampling.Item, len(ids))
		for i := range ids {
			ids[i] = dataset.SampleID(i)
			items[i] = sampling.Item{ID: ids[i], IV: float64(100 - i)}
		}
		if err := cl.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpochPlan(1, ids); err != nil {
			t.Fatal(err)
		}
		vt.Wait() // every worker that could read has
		if n := g.reads(); n != 0 {
			t.Fatalf("%d backend reads in Brownout; want none", n)
		}
		// The boundary also composed an L-cache package: its members wait too.
		held, members := srv.prefetch.depth(), queuedMembers(t, srv)

		gate.Observe(at.Add(time.Second), 0) // an idle window: back to Normal
		if st := gate.State(); st != overload.Normal {
			t.Fatalf("gate is %v; want normal", st)
		}
		waitPlanSettled(t, srv)
		waitLoaded(t, srv)
		for _, id := range ids {
			if !srv.payloads.has(id) || g.count(id) != 1 {
				t.Fatalf("sample %d: resident %v after %d reads; want the drained plan to place it with one read",
					id, srv.payloads.has(id), g.count(id))
			}
		}
		if len(members) == 0 || held != len(ids)+len(members) {
			t.Fatalf("queue held %d entries in Brownout; want the whole plan (%d) and the package's %d members",
				held, len(ids), len(members))
		}
		for _, id := range members {
			if g.count(id) != 1 {
				t.Fatalf("member %d of the held package read %d times after Brownout; want once", id, g.count(id))
			}
		}
		crossBoundary(t, srv, "after a Brownout", func() error { return cl.BeginEpoch(2) })
	})
}

// slowDir holds the first LookupBatch that asks about gate until released —
// a directory slow to answer one plan's residency sweep.
type slowDir struct {
	dkv.Local
	gate             dataset.SampleID
	entered, release chan struct{}
	once             sync.Once
}

func (d *slowDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	if slices.Contains(ids, d.gate) {
		held := false
		d.once.Do(func() { held = true; close(d.entered) })
		if held {
			<-d.release
		}
	}
	return d.Local.LookupBatch(ids)
}

// TestPlanOvertakenBuildIsDropped: two boundaries whose plan builds overlap —
// the first one's directory sweep is held until the second one's plan is
// queued. The first plan's epoch is over by the time its build finishes, so
// it queues nothing: the plan epoch does not go backwards, and the second
// plan's entries are the ones fetched.
func TestPlanOvertakenBuildIsDropped(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		stale, cur := []dataset.SampleID{1, 2, 3, 4}, []dataset.SampleID{5, 6, 7, 8}
		g := newHeldSource(t, nil, holdNone)
		srv := newUnstartedServer(t, g)
		dir := &slowDir{Local: dkv.Local{Dir: dkv.NewDirectory()}, gate: stale[0],
			entered: make(chan struct{}), release: make(chan struct{})}
		srv.EnableDistributed(0, dir, nil)
		addr := serveOn(t, srv)
		var relOnce sync.Once
		release := func() { relOnce.Do(func() { close(dir.release) }) }
		t.Cleanup(release)

		cA, cB := dial(t, addr), dial(t, addr)
		var items []sampling.Item
		for _, id := range append(slices.Clone(stale), cur...) {
			items = append(items, sampling.Item{ID: id, IV: float64(10 - id)})
		}
		if err := cA.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cA.BeginEpochPlan(1, stale) }()
		select {
		case <-dir.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("plan 1's residency sweep never reached the directory")
		}
		if err := cB.BeginEpochPlan(2, cur); err != nil {
			t.Fatal(err)
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		waitPlanSettled(t, srv)
		if ps, issued := srv.PlanStats(), srv.DecisionStats().PrefetchIssued; ps.Epoch != 2 || issued != int64(len(cur)) {
			t.Fatalf("plan stats %+v, %d entries queued; want epoch 2 with only its %d entries", ps, issued, len(cur))
		}
		for _, id := range stale {
			if n := g.count(id); n != 0 {
				t.Fatalf("the overtaken plan fetched sample %d %d times", id, n)
			}
		}
		for _, id := range cur {
			if !srv.payloads.has(id) {
				t.Fatalf("plan 2's sample %d was not placed", id)
			}
		}
	})
}

// TestPlanBuildKeepsPreplacedEntries: a peer's entries pre-placed while this
// node's own plan build is in flight belong to the same epoch, so the build
// supersedes none of them. The one worker is held on the first pre-placed
// sample, so the other four are still queued when the build lands; each is
// read once and placed, and none is booked wasted.
func TestPlanBuildKeepsPreplacedEntries(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		own, plug, peer := []dataset.SampleID{1, 2, 3, 4}, dataset.SampleID(9), []dataset.SampleID{5, 6, 7, 8}
		g := newHeldSource(t, nil, plug)
		srv := newUnstartedServer(t, g)
		withWorkers(srv, 1)
		dir := &slowDir{Local: dkv.Local{Dir: dkv.NewDirectory()}, gate: own[0],
			entered: make(chan struct{}), release: make(chan struct{})}
		srv.EnableDistributed(0, dir, nil)
		addr := serveOn(t, srv)
		var dirOnce sync.Once
		releaseDir := func() { dirOnce.Do(func() { close(dir.release) }) }
		t.Cleanup(releaseDir)
		t.Cleanup(g.open)

		cA, cB := dial(t, addr), dial(t, addr)
		preplaced := append([]dataset.SampleID{plug}, peer...)
		var items []sampling.Item
		for _, id := range append(slices.Clone(own), preplaced...) {
			items = append(items, sampling.Item{ID: id, IV: float64(20 - id)})
		}
		if err := cA.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cA.BeginEpochPlan(1, own) }()
		select {
		case <-dir.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the plan's residency sweep never reached the directory")
		}
		if n, err := cB.PlanPreplace(preplaced); err != nil || n != len(preplaced) {
			t.Fatalf("pre-place accepted %d (%v); want %d", n, err, len(preplaced))
		}
		g.awaitEntered(t) // the worker holds plug; the peer's four wait behind it
		releaseDir()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		g.open()
		waitPlanSettled(t, srv)
		for _, id := range peer {
			if n := g.count(id); n != 1 || !srv.payloads.has(id) {
				t.Fatalf("pre-placed sample %d: %d reads, placed %v; want one read and placed", id, n, srv.payloads.has(id))
			}
		}
		if d := srv.DecisionStats(); d.PrefetchWasted != 0 {
			t.Fatalf("%d prefetches booked wasted inside the epoch; want none", d.PrefetchWasted)
		}
		if ps := srv.PlanStats(); ps.Epoch != 1 || ps.Planned != int64(len(preplaced)+len(own)) {
			t.Fatalf("plan stats %+v; want epoch 1 with the pre-placed and the built entries", ps)
		}
		crossBoundary(t, srv, "after a build beside pre-placed entries", func() error { return cA.BeginEpoch(2) })
	})
}

// TestPlainBoundaryEndsThePlan: a plain boundary after a planned epoch ends
// that epoch's plan. The one worker is held on the plan's first sample; the
// boundary drops the four entries queued behind it, so none of them reaches
// the backend, and all five tokens are swept wasted.
func TestPlainBoundaryEndsThePlan(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const plug = dataset.SampleID(1)
		rest := []dataset.SampleID{2, 3, 4, 5}
		g := newHeldSource(t, nil, plug)
		srv, addr := startPlanTestServer(t, g, 1)
		t.Cleanup(g.open)

		cl := dial(t, addr)
		ids := append([]dataset.SampleID{plug}, rest...)
		var items []sampling.Item
		for _, id := range ids {
			items = append(items, sampling.Item{ID: id, IV: float64(10 - id)})
		}
		if err := cl.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpochPlan(1, ids); err != nil {
			t.Fatal(err)
		}
		g.awaitEntered(t)
		var before, after metrics.DecisionStats
		left := srv.prefetch.ledger(&before)
		if err := cl.BeginEpoch(2); err != nil {
			t.Fatal(err)
		}
		g.open()
		waitPlanSettled(t, srv)
		for _, id := range rest {
			if n := g.count(id); n != 0 {
				t.Fatalf("sample %d of the finished plan was read %d times after the boundary", id, n)
			}
		}
		out := srv.prefetch.ledger(&after)
		if swept := after.PrefetchWasted - before.PrefetchWasted; left != int64(len(ids)) || swept != left || out != 0 {
			t.Fatalf("boundary swept %d of %d tokens out (want all %d), %d left after it", swept, left, len(ids), out)
		}
		if ps := srv.PlanStats(); ps.Epoch != 2 || ps.Planned != 0 || ps.Remaining != 0 {
			t.Fatalf("plan stats %+v; want an empty epoch-2 plan", ps)
		}
	})
}

// TestChaosPlanOwnerKill kills a plan's future-owner node mid-plan, under
// three seeds. The surviving node must (a) route around the dead owner —
// failed pre-place RPCs re-route entries to the local queue, and the next
// epoch's residency sweep sees the cluster as it actually is — and (b) keep
// serving the full selection exactly, with outcome conservation intact.
// Each seed runs in a bubble; `make chaos-vt` runs them ten times and under
// -race.
func TestChaosPlanOwnerKill(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inBubble(t, func(t *testing.T) {
				f := startDistFixture(t)
				spec := testSpec()
				rng := rand.New(rand.NewSource(seed))
				perm := rng.Perm(spec.NumSamples)
				ids := make([]dataset.SampleID, 64)
				items := make([]sampling.Item, len(ids))
				for i := range ids {
					ids[i] = dataset.SampleID(perm[i])
					items[i] = sampling.Item{ID: ids[i], IV: float64(len(ids) - i)}
				}
				cA := dial(t, f.addrs[0])
				cB := dial(t, f.addrs[1])
				if err := cA.UpdateImportance(items); err != nil {
					t.Fatal(err)
				}
				if err := cB.UpdateImportance(items); err != nil {
					t.Fatal(err)
				}

				// Queue the plan, then kill the peer: at once, while its
				// pre-placed share may still be in flight, or after a seeded
				// 1-3 ms on the bubble's clock, by when those reads (which take
				// none of it) are done — every case must degrade, never wedge.
				crossBoundary(t, f.nodes[0], "into plan 1", func() error { return cA.BeginEpochPlan(1, ids) })
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				f.nodes[1].Close()

				// Next epoch, same selection: the residency sweep re-routes the
				// plan around whatever the dead node took with it. The reply waits
				// for the plan's build, pre-place RPCs to the dead owner included.
				var rtt time.Duration
				crossBoundary(t, f.nodes[0], "into plan 2", func() error {
					t0 := time.Now()
					err := cA.BeginEpochPlan(2, ids)
					rtt = time.Since(t0)
					return err
				})
				t.Logf("BeginEpochPlan round trip with the future owner dead: %v", rtt)
				waitPlanSettled(t, f.nodes[0])

				// The full selection must be served exactly — pre-placed bytes
				// locally, dead-owned entries degraded to backend reads — with
				// outcome conservation exact on the surviving node.
				base := cacheStats(f.nodes[0]).Requests()
				for off := 0; off < len(ids); off += 16 {
					samples, err := cA.GetBatch(ids[off : off+16])
					if err != nil {
						t.Fatalf("GetBatch after owner kill: %v", err)
					}
					if len(samples) != 16 {
						t.Fatalf("served %d of 16", len(samples))
					}
					for i, s := range samples {
						if s.ID != ids[off+i] {
							t.Fatalf("H-sample %d substituted with %d", ids[off+i], s.ID)
						}
						if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
							t.Fatalf("corrupt payload: %v", err)
						}
					}
				}
				if delta := cacheStats(f.nodes[0]).Requests() - base; delta != int64(len(ids)) {
					t.Fatalf("conservation violated: outcome classes advanced by %d for %d requested samples", delta, len(ids))
				}

				ps := f.nodes[0].PlanStats()
				if ps.Reroutes+ps.SkippedCluster == 0 {
					t.Fatalf("plan never observed the dead owner (no re-routes, no cluster-resident skips): %+v", ps)
				}

				// The settling boundary sweeps outstanding tokens; the prefetch
				// ledger must balance exactly even with the peer gone.
				crossBoundary(t, f.nodes[0], "after owner kill", func() error { return cA.BeginEpoch(3) })
				requireStoreWithinResidents(t, f.nodes[0])
			})
		})
	}
}
