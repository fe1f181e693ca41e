package icache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

func TestServerSubstituteNoneGoesToStorage(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	cfg.Substitute = SubstituteNone
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	var at simclock.Time
	for e := 0; e < 2; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			end, served := srv.FetchBatch(at, batch)
			for i := range batch {
				if served[i] != batch[i] {
					t.Fatal("SubstituteNone produced a substitution")
				}
			}
			at = end
		}
	}
	if srv.Stats().Substitutions != 0 {
		t.Fatal("substitution counter nonzero under SubstituteNone")
	}
}

func TestServerSubstituteHCacheServesHResidents(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	cfg.Substitute = SubstituteHCache
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	var at simclock.Time
	subsFromH := 0
	for e := 0; e < 3; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			end, served := srv.FetchBatch(at, batch)
			for i := range batch {
				if served[i] != batch[i] {
					// The substitute was an H-cache resident at serve time;
					// it may have been evicted by a later miss in the same
					// batch, so assert validity rather than residency.
					if !back.Spec().Contains(served[i]) {
						t.Fatalf("ST_HC substitute %d not a valid sample", served[i])
					}
					subsFromH++
				}
			}
			at = end
		}
	}
	if subsFromH == 0 {
		t.Fatal("ST_HC never substituted")
	}
}

func TestServerRoutedFetchSeparatesRoutingFromManagement(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Management list: ids 0..99 with high AIV.
	var mgmt []sampling.Item
	for id := dataset.SampleID(0); id < 100; id++ {
		mgmt = append(mgmt, sampling.Item{ID: id, IV: 5})
	}
	srv.InstallHList(sampling.NewHList(mgmt))
	// Routing list of a different job: ids 200..299.
	var routing []sampling.Item
	for id := dataset.SampleID(200); id < 300; id++ {
		routing = append(routing, sampling.Item{ID: id, IV: 5})
	}
	rt := sampling.NewHList(routing)

	// A routed request for id 200 takes the H path (no substitution), but
	// its admission value comes from the management list (absent → 0).
	ids := []dataset.SampleID{200}
	_, served := srv.FetchBatchRouted(0, ids, rt)
	if served[0] != 200 {
		t.Fatal("routed H-request was substituted")
	}
	// With an empty cache it is admitted (room exists) despite AIV 0.
	if !srv.h.contains(200) {
		t.Fatal("sample not admitted while cache had room")
	}
	if iv, _ := srv.h.heap.Value(200); iv != 0 {
		t.Fatalf("admitted with management IV %g, want 0 (not on AIV list)", iv)
	}
}

func TestServerPartitionByFrequency(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	cfg.Partition = PartitionByFrequency
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	initial := srv.HShare()
	var at simclock.Time
	for e := 0; e < 4; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			at, _ = srv.FetchBatch(at, batch)
		}
	}
	// Trigger one more repartition and check the share moved and stayed sane.
	srv.BeginEpoch(at, 4, tr, rng)
	got := srv.HShare()
	if got == initial {
		t.Fatalf("frequency partition never adjusted the split from %.3f", initial)
	}
	if got <= 0 || got >= 1 {
		t.Fatalf("H share %.3f out of range", got)
	}
	// The L-cache floor: at least one package of space must remain.
	if int64(float64(srv.cfg.CapacityBytes)*(1-got)) < int64(srv.ld.pkgBytes)/2 {
		t.Fatalf("L region shrank below the package floor (share %.3f)", got)
	}
}

func TestServerStaticPartitionStays(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back) // PartitionStatic by default
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	initial := srv.HShare()
	var at simclock.Time
	for e := 0; e < 3; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			at, _ = srv.FetchBatch(at, batch)
		}
	}
	if srv.HShare() != initial {
		t.Fatalf("static partition moved: %.3f → %.3f", initial, srv.HShare())
	}
}

// Static packaging has no loading thread: an L-miss reads its whole chunk in
// the foreground (fetchStaticChunk), so the background loader never issues a
// package, and the chunk members it cannot cache are counted as wasted.
func TestServerStaticPackagingIssuesNoPackages(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	cfg.Packaging = PackagingStatic
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	var at simclock.Time
	for e := 0; e < 3; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			at, _ = srv.FetchBatch(at, batch)
		}
		if v := srv.View(); v.Packages != 0 {
			t.Fatalf("epoch %d: static packaging issued %d background packages", e, v.Packages)
		}
	}
	if back.Stats().PackageReads == 0 {
		t.Fatal("no L-miss read a chunk")
	}
	if v := srv.View(); v.LoaderWasted <= 0 {
		t.Fatalf("LoaderWasted = %d after chunk reads, want > 0", v.LoaderWasted)
	}
}

func TestServerEvictObserverFires(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(8 * 1000) // tiny cache to force evictions
	cfg.EnableLCache = false
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	evicted := map[dataset.SampleID]bool{}
	srv.SetEvictObserver(func(id dataset.SampleID) { evicted[id] = true })

	var items []sampling.Item
	for id := dataset.SampleID(0); id < 100; id++ {
		items = append(items, sampling.Item{ID: id, IV: float64(id)})
	}
	srv.InstallHList(sampling.NewHList(items))
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 100; id++ {
		ids = append(ids, id)
	}
	srv.FetchBatch(0, ids)
	if len(evicted) == 0 {
		t.Fatal("no eviction observed from a 8-sample cache fed 100 samples")
	}
	for id := range evicted {
		if srv.Resident(id) {
			t.Fatalf("evicted sample %d still resident", id)
		}
	}
}

// Property: after arbitrary routed traffic the server's two regions never
// overlap and never exceed their byte budgets.
func TestServerRegionInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		back, err := storage.NewBackend(testSpec(), storage.OrangeFS())
		if err != nil {
			return false
		}
		srv, err := NewServer(back, DefaultConfig(back.Spec().TotalBytes()/5), sampling.DefaultIIS(), seed)
		if err != nil {
			return false
		}
		tr, err := sampling.NewTracker(back.Spec().NumSamples, 3.0, 0.3)
		if err != nil {
			return false
		}
		spec := testSpec()
		for i := 0; i < tr.Len(); i++ {
			tr.Observe(dataset.SampleID(i), spec.Difficulty(dataset.SampleID(i))*2+rng.Float64()*0.1)
		}
		var at simclock.Time
		for e := 0; e < 2; e++ {
			sched := srv.BeginEpoch(at, e, tr, rand.New(rand.NewSource(seed+int64(e))))
			for _, batch := range sched.Batches(512) {
				at, _ = srv.FetchBatch(at, batch)
			}
		}
		if srv.h.used > srv.h.capBytes || srv.l.used > srv.l.capBytes {
			return false
		}
		for id := range srv.l.items {
			if srv.h.contains(id) {
				return false // a sample in both regions
			}
		}
		// Heap and KV store must agree exactly.
		if srv.h.heap.Len() != len(srv.h.items) {
			return false
		}
		for id := range srv.h.items {
			if !srv.h.heap.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPromotedLSampleIsMovedNotDoubled: losses drift, so every epoch's
// H-list names samples the loader cached as L-samples earlier. Such a
// request is a hit that moves the copy; re-reading it and admitting a second
// copy into the H-cache would leave the id in both regions, where evicting
// the L twin deletes the payload and the ownership under the H entry.
func TestPromotedLSampleIsMovedNotDoubled(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	spec := back.Spec()
	tr := trainedTracker(t, spec.NumSamples, 17)
	rng := rand.New(rand.NewSource(17))
	var at simclock.Time
	promoted := false
	for e := 0; e < 8; e++ {
		for i := 0; i < spec.NumSamples; i++ { // the hard samples rotate
			tr.Observe(dataset.SampleID(i), spec.Difficulty(dataset.SampleID((i+e*700)%spec.NumSamples))*2)
		}
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, it := range srv.hlist.Items {
			promoted = promoted || srv.l.contains(it.ID)
		}
		for b, batch := range sched.Batches(256) {
			at, _ = srv.FetchBatch(at, batch)
			for id := range srv.l.items {
				if srv.h.contains(id) {
					t.Fatalf("epoch %d batch %d: sample %d is in both regions", e, b, id)
				}
			}
		}
	}
	if !promoted {
		t.Fatal("no L-resident was ever promoted into an H-list; the run proves nothing")
	}
}
