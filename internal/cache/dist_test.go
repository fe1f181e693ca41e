package cache_test

import (
	"math/rand"
	"testing"

	"icache/internal/cache"
	"icache/internal/icache"
	"icache/internal/simclock"
)

func TestNoCacheAlwaysMisses(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "nocache", cache.None(), icache.ScheduleUniform, false)
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(1))
	sched := svc.BeginEpoch(0, 0, tr, rng)
	if len(sched.Fetch) != back.Spec().NumSamples {
		t.Fatalf("nocache fetched %d, want all", len(sched.Fetch))
	}
	end, served := svc.FetchBatch(0, sched.Fetch[:128])
	if end <= 0 || len(served) != 128 {
		t.Fatalf("end=%v served=%d", end, len(served))
	}
	st := svc.Stats()
	if st.Hits != 0 || st.Misses != 128 {
		t.Fatalf("stats = %+v", st)
	}
	if svc.SubstitutionSource() != "none" {
		t.Fatal("nocache substitution source wrong")
	}
	if svc.Name() != "nocache" {
		t.Fatalf("name = %q", svc.Name())
	}
}

func TestNoCacheCISSchedule(t *testing.T) {
	back := testBackend(t)
	svc := baseline(back, "nocache-cis", cache.None(), icache.ScheduleCIS, false)
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < back.Spec().NumSamples; i++ {
		tr.Observe(0, rng.Float64())
	}
	sched := svc.BeginEpoch(0, 0, tr, rng)
	if len(sched.Fetch) != back.Spec().NumSamples {
		t.Fatal("CIS must fetch everything")
	}
	if sched.TrainedCount() >= len(sched.Fetch) {
		t.Fatal("CIS must train a subset")
	}
	if svc.Name() != "nocache-cis" {
		t.Fatalf("name = %q", svc.Name())
	}
}

func TestILRUUsesIISAndLRU(t *testing.T) {
	back := testBackend(t)
	lru := cache.NewLRU(back.Spec().TotalBytes() / 5)
	svc := baseline(back, "ilru", lru, icache.ScheduleIIS, false)
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(2))
	sched := svc.BeginEpoch(0, 0, tr, rng)
	if len(sched.Fetch) >= back.Spec().NumSamples {
		t.Fatal("ILRU did not reduce fetches")
	}
	// The engine runs the LRU it was given: a miss lands in it.
	svc.FetchBatch(0, sched.Fetch[:1])
	if !lru.Contains(sched.Fetch[0]) {
		t.Fatalf("ILRU's LRU (%d residents) did not admit missed sample %d", lru.Len(), sched.Fetch[0])
	}
	if svc.SubstitutionSource() != "none" {
		t.Fatal("ILRU must not substitute")
	}
}

func TestDistDefaultShardsAcrossNodes(t *testing.T) {
	back := testBackend(t)
	svc := icache.NewDistDefault(back, 3, back.Spec().TotalBytes()/5)
	if svc.Nodes() != 3 {
		t.Fatalf("Nodes = %d", svc.Nodes())
	}
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(3))
	sched := svc.BeginEpoch(0, 0, tr, rng)
	var at [3]simclock.Time
	for i, batch := range sched.Batches(128) {
		n := i % 3
		end, served := svc.FetchBatchOn(n, at[n], batch)
		if len(served) != len(batch) {
			t.Fatalf("served %d of %d", len(served), len(batch))
		}
		at[n] = end
	}
	st := svc.Stats()
	if st.Requests() != int64(back.Spec().NumSamples) {
		t.Fatalf("requests = %d, want %d", st.Requests(), back.Spec().NumSamples)
	}
	// Uncoordinated nodes duplicate hot samples: total inserts can exceed
	// what a single shared cache would admit — each node fills its own LRU.
	if st.Inserts == 0 {
		t.Fatal("no inserts")
	}
	if svc.Name() != "default-dist" {
		t.Fatalf("name = %q", svc.Name())
	}
}

func TestDistDefaultNodesIndependent(t *testing.T) {
	back := testBackend(t)
	svc := icache.NewDistDefault(back, 2, back.Spec().TotalBytes()/10)
	tr := newTracker(t, back.Spec().NumSamples)
	rng := rand.New(rand.NewSource(4))
	sched := svc.BeginEpoch(0, 0, tr, rng)
	ids := sched.Fetch[:64]
	// Warm node 0 only.
	svc.FetchBatchOn(0, 0, ids)
	before := svc.Stats()
	// Node 1 must miss on the same IDs (no shared cache in Default-dist).
	svc.FetchBatchOn(1, 0, ids)
	after := svc.Stats()
	if after.Misses-before.Misses != int64(len(ids)) {
		t.Fatalf("node 1 hit node 0's cache: %d misses for %d requests",
			after.Misses-before.Misses, len(ids))
	}
}
