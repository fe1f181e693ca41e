package icache

import (
	"math/rand"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

func TestTier2SpillAndRead(t *testing.T) {
	t2 := newTier2(3000, 80*time.Microsecond, 2e9)
	t2.spill(1, 1000)
	t2.spill(2, 1000)
	if !t2.contains(1) || !t2.contains(2) {
		t.Fatal("spills lost")
	}
	end, ok := t2.read(0, 1)
	if !ok {
		t.Fatal("read of spilled sample failed")
	}
	if end < 80*time.Microsecond {
		t.Fatalf("read cost %v below device latency", end)
	}
	if t2.contains(1) {
		t.Fatal("read did not consume (promote) the sample")
	}
	if _, ok := t2.read(0, 1); ok {
		t.Fatal("double read succeeded")
	}
}

func TestTier2FIFOEviction(t *testing.T) {
	t2 := newTier2(2000, time.Microsecond, 2e9)
	t2.spill(1, 1000)
	t2.spill(2, 1000)
	t2.spill(3, 1000) // evicts 1 (oldest spill)
	if t2.contains(1) {
		t.Fatal("oldest spill survived")
	}
	if !t2.contains(2) || !t2.contains(3) {
		t.Fatal("newer spills lost")
	}
	if t2.used > t2.capBytes {
		t.Fatalf("over budget: %d > %d", t2.used, t2.capBytes)
	}
}

func TestTier2OversizedIgnored(t *testing.T) {
	t2 := newTier2(500, time.Microsecond, 2e9)
	t2.spill(1, 1000)
	if t2.contains(1) || t2.used != 0 {
		t.Fatal("oversized spill accepted")
	}
}

func TestServerTier2ReducesBackendReads(t *testing.T) {
	run := func(tierBytes int64) (int64, int64) {
		back := testBackend(t)
		cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
		cfg.Tier2Bytes = tierBytes
		srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
		if err != nil {
			t.Fatal(err)
		}
		tr := trainedTracker(t, back.Spec().NumSamples, 3)
		rng := rand.New(rand.NewSource(4))
		var at simclock.Time
		for e := 0; e < 5; e++ {
			sched := srv.BeginEpoch(at, e, tr, rng)
			for _, batch := range sched.Batches(256) {
				at, _ = srv.FetchBatch(at, batch)
			}
		}
		return back.Stats().SampleReads, srv.View().Tier2Hits
	}
	noTier, hits0 := run(0)
	withTier, hits1 := run(testSpec().TotalBytes() / 3)
	if hits0 != 0 {
		t.Fatalf("disabled tier reported %d hits", hits0)
	}
	if hits1 == 0 {
		t.Fatal("enabled tier never hit")
	}
	if withTier >= noTier {
		t.Fatalf("tier did not reduce backend reads: %d vs %d", withTier, noTier)
	}
}

func TestServerTier2ComposesWithEvictObserver(t *testing.T) {
	back := testBackend(t)
	cfg := DefaultConfig(20 * 1000) // tiny: forces churn
	cfg.EnableLCache = false
	cfg.Tier2Bytes = 100 * 1000
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	srv.SetEvictObserver(func(dataset.SampleID) { observed++ })

	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 200; id++ {
		items = append(items, sampling.Item{ID: id, IV: float64(id)})
		ids = append(ids, id)
	}
	srv.InstallHList(sampling.NewHList(items))
	srv.FetchBatch(0, ids)
	if observed == 0 {
		t.Fatal("user evict observer not called alongside tier spill")
	}
	if srv.View().Tier2Len == 0 {
		t.Fatal("nothing spilled despite churn")
	}
}
