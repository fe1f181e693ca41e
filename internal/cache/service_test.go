// The baselines' fetch path is icache.Server's; these tests run each
// baseline's policy through it (an external test package, so the engine may
// import this one).
package cache_test

import (
	"math/rand"
	"testing"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func testBackend(t *testing.T) *storage.Backend {
	t.Helper()
	spec := dataset.Spec{Name: "svc", NumSamples: 2000, MeanSampleBytes: 1000, Seed: 9}
	b, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTracker(t *testing.T, n int) *sampling.Tracker {
	t.Helper()
	tr, err := sampling.NewTracker(n, 3.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// baseline runs policy through the engine under the given sampler.
func baseline(back *storage.Backend, name string, policy *cache.Policy, sched icache.ScheduleKind, substitute bool) *icache.Server {
	return icache.NewBaselineServer(back, icache.Baseline{Name: name, Policy: policy, Schedule: sched, Substitute: substitute})
}

// oracle is an Unbounded policy already holding the whole dataset.
func oracle(spec dataset.Spec) *cache.Policy {
	all := cache.NewUnbounded()
	for id := dataset.SampleID(0); int(id) < spec.NumSamples; id++ {
		all.Admit(id, spec.SampleBytes(id))
	}
	return all
}

// runEpoch drives one full epoch through the service with a single worker.
func runEpoch(t *testing.T, b *icache.Server, tr *sampling.Tracker, seed int64) sampling.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := b.BeginEpoch(0, 0, tr, rng)
	for _, batch := range sched.Batches(256) {
		_, served := b.FetchBatch(0, batch)
		if len(served) != len(batch) {
			t.Fatalf("served %d of %d", len(served), len(batch))
		}
	}
	return sched
}

func TestDefaultServiceFetchesEverySample(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "default", cache.NewLRU(back.Spec().TotalBytes()/5), icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	sched := runEpoch(t, svc, tr, 1)
	if len(sched.Fetch) != back.Spec().NumSamples {
		t.Fatalf("fetched %d, want full dataset", len(sched.Fetch))
	}
	s := svc.Stats()
	if s.Requests() != int64(back.Spec().NumSamples) {
		t.Fatalf("requests = %d", s.Requests())
	}
	if s.Misses == 0 {
		t.Fatal("cold cache produced no misses")
	}
}

func TestDefaultServiceHitRatioStabilizesLow(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "default", cache.NewLRU(back.Spec().TotalBytes()/5), icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	for e := 0; e < 3; e++ {
		runEpoch(t, svc, tr, int64(e))
	}
	hr := svc.Stats().HitRatio()
	// LRU under per-epoch reshuffles: some hits, far below the 20% capacity.
	if hr <= 0 || hr > 0.25 {
		t.Fatalf("LRU hit ratio = %g, want (0, 0.25]", hr)
	}
}

func TestQuiverSubstitutes(t *testing.T) {
	back := testBackend(t)
	lru := cache.NewLRU(back.Spec().TotalBytes() / 5)
	svc := baseline(back, "quiver", lru, icache.ScheduleUniform, true)
	tr := newTracker(t, back.Spec().NumSamples)
	runEpoch(t, svc, tr, 1) // warm the cache
	runEpoch(t, svc, tr, 2)
	s := svc.Stats()
	if s.Substitutions == 0 {
		t.Fatal("Quiver never substituted")
	}
	// Each resident substitutes at most once per epoch: substitutions per
	// epoch cannot exceed cache size.
	if s.Substitutions > 2*int64(lru.Len()) {
		t.Fatalf("substitutions %d exceed 2 epochs × %d residents", s.Substitutions, lru.Len())
	}
}

func TestQuiverServedIDsDifferOnSubstitution(t *testing.T) {
	back := testBackend(t)
	lru := cache.NewLRU(back.Spec().TotalBytes() / 5)
	svc := baseline(back, "quiver", lru, icache.ScheduleUniform, true)
	tr := newTracker(t, back.Spec().NumSamples)
	runEpoch(t, svc, tr, 1)
	rng := rand.New(rand.NewSource(2))
	sched := svc.BeginEpoch(0, 1, tr, rng)
	subSeen := false
	for _, batch := range sched.Batches(256) {
		_, served := svc.FetchBatch(0, batch)
		for i := range batch {
			if served[i] != batch[i] {
				subSeen = true
				if !lru.Contains(served[i]) {
					// A substitute must have been resident when chosen; it
					// can only leave via eviction, which Quiver's LRU does
					// on admit. Weak check: it must at least be a valid ID.
					if !back.Spec().Contains(served[i]) {
						t.Fatalf("substitute %d not a valid sample", served[i])
					}
				}
			}
		}
	}
	if !subSeen {
		t.Fatal("no substitution observed in served IDs")
	}
}

func TestCoorDLHitRatioEqualsCapacityFraction(t *testing.T) {
	back := testBackend(t)
	minio := cache.NewMinIO(back.Spec().TotalBytes() / 5)
	svc := baseline(back, "coordl", minio, icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	runEpoch(t, svc, tr, 1) // fill
	before := svc.Stats()
	runEpoch(t, svc, tr, 2)
	after := svc.Stats()
	epochHits := after.Hits - before.Hits
	epochReq := after.Requests() - before.Requests()
	hr := float64(epochHits) / float64(epochReq)
	if hr < 0.17 || hr > 0.23 {
		t.Fatalf("CoorDL steady-state hit ratio = %g, want ≈0.20", hr)
	}
	if minio.Evictions() != 0 {
		t.Fatal("CoorDL evicted")
	}
}

func TestBaseFetchesAllTrainsFewer(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "base", cache.NewLRU(back.Spec().TotalBytes()/5), icache.ScheduleCIS, false)
	tr := newTracker(t, back.Spec().NumSamples)
	sched := runEpoch(t, svc, tr, 1)
	if len(sched.Fetch) != back.Spec().NumSamples {
		t.Fatalf("CIS fetched %d, want all", len(sched.Fetch))
	}
	if sched.TrainedCount() >= len(sched.Fetch) {
		t.Fatal("CIS trained everything")
	}
}

func TestILFUFetchesSubset(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "ilfu", cache.NewLFU(back.Spec().TotalBytes()/5), icache.ScheduleIIS, false)
	tr := newTracker(t, back.Spec().NumSamples)
	sched := runEpoch(t, svc, tr, 1)
	if len(sched.Fetch) >= back.Spec().NumSamples {
		t.Fatal("IIS did not reduce fetches")
	}
}

func TestOracleZeroBackendReads(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "oracle", oracle(back.Spec()), icache.ScheduleIIS, false)
	tr := newTracker(t, back.Spec().NumSamples)
	runEpoch(t, svc, tr, 1)
	if got := back.Stats().SampleReads; got != 0 {
		t.Fatalf("Oracle issued %d backend reads", got)
	}
	if svc.Stats().Misses != 0 {
		t.Fatal("Oracle recorded misses")
	}
}

func TestFetchBatchAdvancesTime(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "default", cache.NewLRU(back.Spec().TotalBytes()/5), icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(3))
	sched := svc.BeginEpoch(0, 0, tr, rng)
	end, _ := svc.FetchBatch(0, sched.Fetch[:64])
	if end <= 0 {
		t.Fatalf("cold batch completed instantly: %v", end)
	}
}

func TestStatsIncludePolicyEvictions(t *testing.T) {
	back := testBackend(t)
	// Tiny cache forces evictions quickly.
	svc := baseline(back, "default", cache.NewLRU(10_000), icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	runEpoch(t, svc, tr, 1)
	if svc.Stats().Evictions == 0 {
		t.Fatal("evictions not surfaced in Stats")
	}
}
