package rpc

// Tests for the clairvoyant prefetch planner: the demand-promotion pin (a
// planned entry overtaken by a foreground request must not cost a second
// backend read), the prefetch-outcome conservation identity with the
// planner on across epoch boundaries, and the chaos path where a plan's
// future owner dies mid-plan and the next residency sweep re-routes
// around it.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// startPlanTestServer boots an unstarted planning server tuned so the
// clairvoyant planner is the only prefetch source: all-H policy (L-cache
// off, so the reactive loader never enqueues), the given worker count, and
// the planner installed before Serve.
func startPlanTestServer(t *testing.T, src ByteSource, workers int) (*Server, string) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	ccfg := icache.DefaultConfig(spec.TotalBytes() / 5)
	ccfg.EnableLCache = false
	if workers >= 0 {
		ccfg.PrefetchWorkers = workers
	}
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
	srv.SetClairvoyant()
	if srv.plan == nil {
		t.Fatal("SetClairvoyant did not install a planner")
	}
	return srv, serveOn(t, srv)
}

// waitPlanSettled blocks until the planner has nothing installed, queued or
// in flight AND the prefetch pool has resolved every entry it accepted —
// the state in which a subsequent epoch boundary observes an exactly
// balanced ledger.
func waitPlanSettled(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		p := srv.plan
		p.mu.Lock()
		idle := p.raw == nil && !p.busy && len(p.queue) == 0
		p.mu.Unlock()
		if idle {
			sv := srv.ServingStats()
			if srv.prefetch.depth() == 0 && sv.PrefetchQueued == sv.PrefetchCompleted+sv.PrefetchFailed {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan never settled: %+v, serving %+v", srv.PlanStats(), srv.ServingStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// gatedSource counts backend fetches per sample and blocks the fetch of one
// designated sample until released, so a test can hold the (single) prefetch
// worker mid-fetch with the rest of the plan still queued behind it.
type gatedSource struct {
	inner   ByteSource
	gate    dataset.SampleID
	entered chan struct{} // closed when the gated fetch begins
	release chan struct{} // the gated fetch blocks until this closes
	once    sync.Once

	mu     sync.Mutex
	counts map[dataset.SampleID]int
}

func (g *gatedSource) Spec() dataset.Spec { return g.inner.Spec() }

func (g *gatedSource) Fetch(id dataset.SampleID) ([]byte, error) {
	g.mu.Lock()
	g.counts[id]++
	g.mu.Unlock()
	if id == g.gate {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.inner.Fetch(id)
}

func (g *gatedSource) count(id dataset.SampleID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counts[id]
}

// TestPlanPromotionNoDoubleFetch pins the promotion contract: a demand
// fetch that overtakes a queued-but-unstarted planned prefetch becomes THE
// backend read for that sample — the worker's later turn skips the
// cancelled entry entirely, so the backend sees at most one fetch per
// unique miss, and the pending token resolves late (the plan existed, the
// foreground beat it).
func TestPlanPromotionNoDoubleFetch(t *testing.T) {
	defer leakcheck.Check(t)
	const plug, target = dataset.SampleID(3), dataset.SampleID(7)
	inner, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedSource{
		inner:   inner,
		gate:    plug,
		entered: make(chan struct{}),
		release: make(chan struct{}),
		counts:  make(map[dataset.SampleID]int),
	}
	// One worker: while it is held inside plug's fetch, target's planned
	// entry must sit queued and unstarted.
	srv, addr := startPlanTestServer(t, g, 1)
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { close(g.release) }) }
	t.Cleanup(release) // never leave the worker blocked on a failed test

	cl := dial(t, addr)
	items := []sampling.Item{{ID: plug, IV: 10}, {ID: target, IV: 9}}
	if err := cl.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cl.BeginEpochPlan(1, []dataset.SampleID{plug, target}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("planned prefetch of the gate sample never reached the backend")
	}
	// Wait until target's entry is queued behind the blocked worker.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ServingStats().PrefetchQueued < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second plan entry never queued: %+v", srv.ServingStats())
		}
		time.Sleep(time.Millisecond)
	}

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

	release()
	// The worker finishes plug, then dequeues target's cancelled entry and
	// must skip it without touching the backend.
	deadline = time.Now().Add(10 * time.Second)
	for {
		sv := srv.ServingStats()
		if sv.PrefetchCompleted == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never resolved both entries: %+v", sv)
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.count(target); got != 1 {
		t.Fatalf("backend fetched sample %d %d times; the cancelled plan entry re-fetched it", target, got)
	}
	if got := g.count(plug); got != 1 {
		t.Fatalf("backend fetched sample %d %d times; want exactly 1", plug, got)
	}

	// Settle and pin the ledger: target resolved late (promoted), plug's
	// token sweeps as wasted, nothing double-counted.
	if err := cl.BeginEpoch(2); err != nil {
		t.Fatal(err)
	}
	d := srv.DecisionStats()
	if sum := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; sum != d.PrefetchIssued {
		t.Fatalf("prefetch ledger unbalanced after promotion: in-time %d + late %d + wasted %d + dropped %d = %d, want issued %d",
			d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, sum, d.PrefetchIssued)
	}
	if d.PrefetchLate == 0 {
		t.Fatal("the promoted entry was not counted late")
	}
}

// TestPlanConservationAcrossEpochs drives two planned epochs (with partial
// selection overlap, as IIS re-draws produce) plus demand traffic over the
// pre-placed set, and pins that the planner (a) actually pre-places every
// missing scheduled H-sample and (b) leaves the prefetch-outcome identity
// exactly balanced at every boundary it crosses.
func TestPlanConservationAcrossEpochs(t *testing.T) {
	defer leakcheck.Check(t)
	srv, addr := startPlanTestServer(t, nil, -1)
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
		deadline := time.Now().Add(15 * time.Second)
		for {
			n := 0
			for _, id := range sel {
				if srv.payloads.has(id) {
					n++
				}
			}
			if n == len(sel) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pre-placement stalled: %d of %d planned samples resident (%+v)", n, len(sel), srv.PlanStats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Epoch 1: plan the first 160 samples, let the planner place them, then
	// read a slice of them — those reads must be in-time prefetch hits.
	if err := cl.BeginEpochPlan(1, ids[:160]); err != nil {
		t.Fatal(err)
	}
	waitResident(ids[:160])
	waitPlanSettled(t, srv)
	baseMisses := cacheStats(srv).Misses
	getAll(ids[:64])
	if d := cacheStats(srv).Misses - baseMisses; d != 0 {
		t.Fatalf("reads of pre-placed samples missed %d times; want pure hits", d)
	}

	// Epoch 2: the selection shifts (half overlap) — only the truly missing
	// tail needs fetching, the overlap is already resident.
	if err := cl.BeginEpochPlan(2, ids[80:240]); err != nil {
		t.Fatal(err)
	}
	waitResident(ids[80:240])
	waitPlanSettled(t, srv)
	getAll(ids[120:184])

	// Settle: the final boundary sweeps outstanding tokens; the identity
	// must hold exactly, with real in-time outcomes recorded.
	if err := cl.BeginEpoch(3); err != nil {
		t.Fatal(err)
	}
	d := srv.DecisionStats()
	if sum := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; sum != d.PrefetchIssued {
		t.Fatalf("prefetch ledger unbalanced with planner on: in-time %d + late %d + wasted %d + dropped %d = %d, want issued %d",
			d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, sum, d.PrefetchIssued)
	}
	if d.PrefetchIssued == 0 {
		t.Fatal("planner issued no prefetches")
	}
	if d.PrefetchInTime == 0 {
		t.Fatal("no planned prefetch was consumed in time")
	}
	ps := srv.PlanStats()
	if ps.EntriesTotal == 0 {
		t.Fatalf("planner admitted no entries: %+v", ps)
	}
	if ps.CompletedTotal != ps.EntriesTotal {
		t.Fatalf("plan drain leaked entries: completed %d of %d admitted", ps.CompletedTotal, ps.EntriesTotal)
	}
}

// TestChaosPlanOwnerKill kills a plan's future-owner node mid-plan, under
// three seeds. The surviving node must (a) route around the dead owner —
// failed pre-place RPCs re-route entries to the local queue, and the next
// epoch's residency sweep sees the cluster as it actually is — and (b) keep
// serving the full selection exactly, with outcome conservation intact.
// `make chaos` runs this with -count=3 and under -race.
func TestChaosPlanOwnerKill(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := startDistFixtureHook(t, func(n int, srv *Server) {
				srv.SetClairvoyant()
			})
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

			// Install the plan, then kill the peer mid-plan: depending on
			// the seed's timing the pre-place RPC dies before, during, or
			// after shipping — every case must degrade, never wedge.
			if err := cA.BeginEpochPlan(1, ids); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			f.nodes[1].Close()

			// Next epoch, same selection: the residency sweep re-routes the
			// plan around whatever the dead node took with it.
			if err := cA.BeginEpochPlan(2, ids); err != nil {
				t.Fatal(err)
			}
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
			if err := cA.BeginEpoch(3); err != nil {
				t.Fatal(err)
			}
			d := f.nodes[0].DecisionStats()
			if sum := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; sum != d.PrefetchIssued {
				t.Fatalf("prefetch ledger unbalanced after owner kill: in-time %d + late %d + wasted %d + dropped %d = %d, want issued %d",
					d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, sum, d.PrefetchIssued)
			}
			requireStoreWithinResidents(t, f.nodes[0])
		})
	}
}
