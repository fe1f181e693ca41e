package icache

import (
	"math/rand"
	"testing"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

func testSpec() dataset.Spec {
	return dataset.Spec{Name: "ic", NumSamples: 5000, MeanSampleBytes: 1000, Seed: 11}
}

func testBackend(t *testing.T) *storage.Backend {
	t.Helper()
	b, err := storage.NewBackend(testSpec(), storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testServer(t *testing.T, back *storage.Backend) *Server {
	t.Helper()
	cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
	s, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trainedTracker(t *testing.T, n int, seed int64) *sampling.Tracker {
	t.Helper()
	tr, err := sampling.NewTracker(n, 3.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Losses correlated with intrinsic difficulty, as training produces.
		tr.Observe(dataset.SampleID(i), spec.Difficulty(dataset.SampleID(i))*2+rng.Float64()*0.1)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1 << 20).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = DefaultConfig(1 << 20)
	bad.HShare = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("HShare=1 accepted")
	}
	bad = DefaultConfig(1 << 20)
	bad.FreqDecay = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("FreqDecay=1 accepted")
	}
}

func TestSubstitutePolicyString(t *testing.T) {
	if SubstituteLCache.String() != "st-lc" || SubstituteHCache.String() != "st-hc" || SubstituteNone.String() != "none" {
		t.Fatal("SubstitutePolicy strings wrong")
	}
	if PartitionStatic.String() != "static" || PartitionByFrequency.String() != "freq" {
		t.Fatal("PartitionPolicy strings wrong")
	}
}

func TestHCacheOfferAndImportanceEviction(t *testing.T) {
	h := newHCache(3000) // three 1000-byte samples
	if !h.offer(1, 1000, 0.5) || !h.offer(2, 1000, 0.7) || !h.offer(3, 1000, 0.9) {
		t.Fatal("offers with room failed")
	}
	// Full. A less-important sample must be rejected.
	if h.offer(4, 1000, 0.4) {
		t.Fatal("admitted sample less important than the top-node")
	}
	// A more-important sample evicts the current minimum (id 1, iv 0.5).
	if !h.offer(5, 1000, 0.8) {
		t.Fatal("more-important sample rejected")
	}
	if h.contains(1) {
		t.Fatal("top-node not evicted")
	}
	if !h.contains(2) || !h.contains(3) || !h.contains(5) {
		t.Fatal("wrong resident set")
	}
	if h.evictions != 1 || h.inserts != 4 {
		t.Fatalf("evictions=%d inserts=%d", h.evictions, h.inserts)
	}
}

func TestHCacheResizeEvictsLowestImportance(t *testing.T) {
	h := newHCache(3000)
	h.offer(1, 1000, 0.1)
	h.offer(2, 1000, 0.9)
	h.offer(3, 1000, 0.5)
	h.resize(2000)
	if h.contains(1) {
		t.Fatal("resize kept the least important sample")
	}
	if h.used != 2000 {
		t.Fatalf("used = %d", h.used)
	}
}

func TestHCacheRefreshDemotesAbsentSamples(t *testing.T) {
	h := newHCache(2000)
	h.offer(1, 1000, 0.9)
	h.offer(2, 1000, 0.8)
	// New H-list contains only sample 2; sample 1 is demoted to iv 0.
	h.refreshImportance(func(id dataset.SampleID) (float64, bool) {
		if id == 2 {
			return 0.8, true
		}
		return 0, false
	})
	// An incoming H-sample with any positive iv now evicts sample 1 first.
	if !h.offer(3, 1000, 0.3) {
		t.Fatal("offer after refresh rejected")
	}
	if h.contains(1) {
		t.Fatal("demoted sample survived eviction pressure")
	}
	if !h.contains(2) {
		t.Fatal("still-important sample evicted")
	}
}

func TestHCacheRandomResident(t *testing.T) {
	h := newHCache(10_000)
	rng := rand.New(rand.NewSource(1))
	if _, ok := h.randomResident(rng); ok {
		t.Fatal("random resident from empty cache")
	}
	for i := 0; i < 10; i++ {
		h.offer(dataset.SampleID(i), 1000, float64(i))
	}
	seen := map[dataset.SampleID]bool{}
	for i := 0; i < 200; i++ {
		id, ok := h.randomResident(rng)
		if !ok || !h.contains(id) {
			t.Fatal("random resident invalid")
		}
		seen[id] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random pick covered only %d/10 residents", len(seen))
	}
}

func TestLCacheExactHitOncePerEpoch(t *testing.T) {
	l := newLCache(10_000)
	l.insert(1, 1000)
	if !l.takeExact(1) {
		t.Fatal("exact hit failed")
	}
	if l.takeExact(1) {
		t.Fatal("same sample served twice in one epoch")
	}
	l.beginEpoch()
	if !l.takeExact(1) {
		t.Fatal("epoch reset did not restore servability")
	}
}

func TestLCacheSubstituteConsumesPool(t *testing.T) {
	l := newLCache(10_000)
	for i := 0; i < 5; i++ {
		l.insert(dataset.SampleID(i), 1000)
	}
	rng := rand.New(rand.NewSource(2))
	got := map[dataset.SampleID]bool{}
	for i := 0; i < 5; i++ {
		id, ok := l.substitute(rng)
		if !ok {
			t.Fatalf("substitute %d failed with pool", i)
		}
		if got[id] {
			t.Fatalf("substitute returned %d twice", id)
		}
		got[id] = true
	}
	if _, ok := l.substitute(rng); ok {
		t.Fatal("substitute succeeded with exhausted pool")
	}
}

func TestLCacheEvictsUsedFirst(t *testing.T) {
	l := newLCache(3000)
	l.insert(1, 1000)
	l.insert(2, 1000)
	l.insert(3, 1000)
	if !l.takeExact(2) {
		t.Fatal("take failed")
	}
	l.insert(4, 1000) // must evict used sample 2, not unused 1/3
	if l.contains(2) {
		t.Fatal("used sample survived while unused was evicted")
	}
	if !l.contains(1) || !l.contains(3) || !l.contains(4) {
		t.Fatal("wrong resident set")
	}
}

func TestLCacheEvictsOldestUnusedWhenNoUsed(t *testing.T) {
	l := newLCache(2000)
	l.insert(1, 1000)
	l.insert(2, 1000)
	l.insert(3, 1000) // no used entries: evict oldest arrival (1)
	if l.contains(1) || !l.contains(2) || !l.contains(3) {
		t.Fatal("FIFO eviction wrong")
	}
}

func TestLCacheClaimVeto(t *testing.T) {
	l := newLCache(10_000)
	l.claim = func(id dataset.SampleID) bool { return id%2 == 0 }
	if l.insert(1, 1000) {
		t.Fatal("vetoed insert succeeded")
	}
	if !l.insert(2, 1000) {
		t.Fatal("approved insert failed")
	}
}

func TestServerEndToEndEpochs(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))

	var prevHits int64
	for epoch := 0; epoch < 4; epoch++ {
		sched := srv.BeginEpoch(0, epoch, tr, rng)
		if len(sched.Fetch) >= back.Spec().NumSamples {
			t.Fatal("IIS did not reduce fetch volume")
		}
		var at simclock.Time
		for _, batch := range sched.Batches(256) {
			end, served := srv.FetchBatch(at, batch)
			if len(served) != len(batch) {
				t.Fatalf("served %d of %d", len(served), len(batch))
			}
			at = end
		}
		hits := srv.Stats().Hits + srv.Stats().Substitutions
		if epoch > 0 && hits <= prevHits {
			t.Fatalf("epoch %d: no cache service at all", epoch)
		}
		prevHits = hits
	}

	st := srv.Stats()
	if st.HitRatio() < 0.10 {
		t.Fatalf("hit ratio %.3f too low — H-cache not working", st.HitRatio())
	}
	if v := srv.View(); v.HLen == 0 {
		t.Fatal("empty H-cache after four epochs")
	} else if v.Packages == 0 {
		t.Fatal("loading thread never loaded a package")
	}
}
