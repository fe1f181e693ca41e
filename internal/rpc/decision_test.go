package rpc

// Tests for the decision-level observability layer: the reason-coded
// eviction ledger, admission provenance, the prefetch-outcome ledger and
// its epoch-boundary conservation identity, the control-plane journal, and
// the timeline collector.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/sampling"
)

// TestDecisionLedgerConservation drives real traffic (foreground fetches, a
// planned epoch's prefetches, a directed drop) across epoch boundaries and
// then pins the full decision ledger:
//
//	EvictCapacity + EvictDeadOwner + EvictScrub + EvictCheckpointDenied
//	  + EvictDirUnavailable                                             == EvictTotal
//	PrefetchInTime + PrefetchLate + PrefetchWasted + PrefetchDropped
//	  + outstanding tokens                                             == PrefetchIssued
//
// Both identities hold always; the boundary's sweep books every token the
// finished epoch left out wasted, so after it the outstanding tokens are only
// the new epoch's plan.
func TestDecisionLedgerConservation(t *testing.T) {
	defer leakcheck.Check(t)
	srv, addr, _ := startServer(t)
	cl := dial(t, addr)
	spec := testSpec()

	// An H-list of half the dataset, several times what the cache holds,
	// importance falling with the id: foreground H-misses are admitted over
	// less important residents (capacity evictions), and the other half are
	// L-samples whose misses feed the loader.
	hlist := make([]sampling.Item, spec.NumSamples/2)
	for i := range hlist {
		hlist[i] = sampling.Item{ID: dataset.SampleID(i), IV: float64(len(hlist) - i)}
	}
	if err := cl.UpdateImportance(hlist); err != nil {
		t.Fatal(err)
	}
	hot := idRange(0, 20)

	// A planned epoch: the pool places the plan's H-samples; half of them are
	// read in time, the rest are swept wasted at the next boundary.
	crossBoundary(t, srv, "into epoch 1", func() error { return cl.BeginEpochPlan(1, hot) })
	waitPlanSettled(t, srv)
	if _, err := cl.GetBatch(hot[:10]); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ids := make([]dataset.SampleID, 8)
	for r := 0; r < 200; r++ {
		for i := range ids {
			ids[i] = dataset.SampleID(100 + rng.Intn(spec.NumSamples-100))
		}
		if _, err := cl.GetBatch(ids); err != nil {
			t.Fatal(err)
		}
	}

	// A directed drop with a reason code: make a sample resident, then
	// remove it the way the scrubber would.
	if _, err := cl.GetBatch([]dataset.SampleID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	srv.policyMu.Lock()
	dropped := srv.cache.DropFor(2, icache.DropScrub)
	srv.policyMu.Unlock()
	if !dropped {
		t.Fatal("sample 2 was not resident to drop")
	}

	// The plain boundary sweeps the plan's outstanding tokens.
	crossBoundary(t, srv, "into epoch 2", func() error { return cl.BeginEpoch(2) })

	d := srv.DecisionStats()
	requireEvictionsReasoned(t, d)
	if d.EvictScrub == 0 {
		t.Error("directed scrub drop was not reason-counted")
	}
	if d.PrefetchIssued == 0 || d.PrefetchInTime == 0 || d.PrefetchWasted == 0 {
		t.Errorf("issued %d, in time %d, wasted %d; the ledger test exercised too little",
			d.PrefetchIssued, d.PrefetchInTime, d.PrefetchWasted)
	}
	if r := d.PrefetchTimeliness(); r < 0 || r > 1 {
		t.Errorf("timeliness ratio %g outside [0,1]", r)
	}
	if d.AdmitFetch == 0 {
		t.Error("foreground admissions not provenance-counted")
	}
	if d.EvictCapacity == 0 {
		t.Error("foreground admissions evicted nothing")
	}
	if d.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", d.Epoch)
	}
	if d.EpochHCount == 0 && d.EpochLCount == 0 {
		t.Error("epoch-boundary residency snapshot is empty")
	}
}

func requireEvictionsReasoned(t *testing.T, d metrics.DecisionStats) {
	t.Helper()
	if sum := d.EvictCapacity + d.EvictDeadOwner + d.EvictScrub + d.EvictCheckpointDenied + d.EvictDirUnavailable; sum != d.EvictTotal {
		t.Errorf("eviction ledger leaks: capacity %d + dead-owner %d + scrub %d + ckpt-denied %d + dir-unavailable %d = %d, want EvictTotal %d",
			d.EvictCapacity, d.EvictDeadOwner, d.EvictScrub, d.EvictCheckpointDenied, d.EvictDirUnavailable, sum, d.EvictTotal)
	}
}

// TestFailedClaimIsNotADeadOwner: an admission whose claim errors drops its
// copy as dir-unavailable, not as dead-owner — no other node owns anything
// here — and each drop is one counted directory failure.
func TestFailedClaimIsNotADeadOwner(t *testing.T) {
	defer leakcheck.Check(t)
	inj := faults.New(1).Add(faults.FailN(faults.OpDirClaim, 5, nil))
	srv := newUnstartedServer(t, nil)
	srv.EnableDistributed(0, faults.WrapDir(dkv.Local{Dir: dkv.NewDirectory()}, inj), nil)
	c := dial(t, serveOn(t, srv))
	var items []sampling.Item
	for id := dataset.SampleID(0); id < 20; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	for id := dataset.SampleID(0); id < 20; id++ {
		if _, err := c.GetBatch([]dataset.SampleID{id}); err != nil {
			t.Fatal(err)
		}
	}
	d := srv.DecisionStats()
	if d.EvictDeadOwner != 0 || d.EvictDirUnavailable != 5 || inj.Fired(faults.OpDirClaim) != 5 {
		t.Errorf("5 failed claims: dead-owner %d, dir-unavailable %d; want 0 and 5", d.EvictDeadOwner, d.EvictDirUnavailable)
	}
	if _, dirFailures := srv.ResilienceStats(); dirFailures != 5 {
		t.Errorf("%d directory failures counted, want 5", dirFailures)
	}
	requireEvictionsReasoned(t, d)
	requireStoreWithinResidents(t, srv)
}

// TestJournalRecordsEpochBoundaries wires a journal into a serving node and
// checks that BeginEpoch appends epoch events with the right transition
// numbering.
func TestJournalRecordsEpochBoundaries(t *testing.T) {
	defer leakcheck.Check(t)
	srv, addr, _ := startServer(t)
	j := obs.NewJournal(64)
	srv.SetJournal(j)
	cl := dial(t, addr)

	for epoch := 1; epoch <= 3; epoch++ {
		if err := cl.BeginEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	var epochs []obs.Event
	for _, e := range j.Snapshot() {
		if e.Kind == obs.EventEpoch {
			epochs = append(epochs, e)
		}
	}
	if len(epochs) != 3 {
		t.Fatalf("journal holds %d epoch events, want 3", len(epochs))
	}
	for i, e := range epochs {
		if e.Old != int64(i) || e.New != int64(i+1) {
			t.Fatalf("epoch event %d is %d→%d, want %d→%d", i, e.Old, e.New, i, i+1)
		}
	}
}

// TestTimelinePointCarriesDecisionSeries checks the per-node timeline
// collector against the exposition on a quiescent server after traffic: the
// key set is the 34 keys consumers (icache-top, the benchmark) were given
// before the series table, and every key reads the value /metrics prints for
// the row it belongs to.
func TestTimelinePointCarriesDecisionSeries(t *testing.T) {
	defer leakcheck.Check(t)
	srv, addr, _ := startServer(t)
	cl := dial(t, addr)
	if _, err := cl.GetBatch([]dataset.SampleID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	p, prom := srv.TimelinePoint(), scrape(t, srv)
	for again := srv.TimelinePoint(); !reflect.DeepEqual(p, again); again = srv.TimelinePoint() {
		p, prom = again, scrape(t, srv) // the batch's prefetches were still landing
	}
	want := strings.Fields(`hits misses substitutions degraded requests shed expired hcache_len lcache_len
		payload_len gate_state breakers_open breaker_trips evict_capacity evict_dead_owner evict_scrub
		evict_checkpoint_denied prefetch_issued prefetch_in_time prefetch_late prefetch_wasted prefetch_dropped
		prefetch_timeliness sub_exact sub_fallback epoch epoch_hcache_len epoch_lcache_len peer_serves peer_hits
		plan_planned plan_completed plan_remaining demand_fetches`)
	for _, key := range want {
		if _, ok := p[key]; !ok {
			t.Errorf("timeline point lacks series %q", key)
		}
	}
	if len(p) != len(want) || len(want) != 34 {
		t.Errorf("timeline point has %d keys, want the %d known ones", len(p), len(want))
	}
	for _, r := range new(nodeView).rows() {
		if r.key != "" && p[r.key] != prom[r.name] {
			t.Errorf("timeline %q = %g, exposition %s = %g", r.key, p[r.key], r.name, prom[r.name])
		}
	}
	if p["requests"] != 4 || prom["icache_cache_requests_total"] != 4 {
		t.Errorf("requests series reads %g / %g after 4 samples", p["requests"], prom["icache_cache_requests_total"])
	}
}
