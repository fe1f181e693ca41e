package icache

import (
	"math/rand"
	"testing"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

func runJobEpoch(t *testing.T, h *JobHandle, tr *sampling.Tracker, epoch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := h.BeginEpoch(0, epoch, tr, rng)
	var at simclock.Time
	for _, batch := range sched.Batches(128) {
		end, served := h.FetchBatch(at, batch)
		if len(served) != len(batch) {
			t.Fatalf("served %d of %d", len(served), len(batch))
		}
		at = end
	}
}

func TestCoordinatorTwoJobsShareCache(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	coord := NewCoordinator(srv, CoordAIV)

	jobA, err := coord.Register("fast-model", sampling.DefaultIIS())
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := coord.Register("slow-model", sampling.DefaultIIS())
	if err != nil {
		t.Fatal(err)
	}
	trA := trainedTracker(t, back.Spec().NumSamples, 10)
	trB := trainedTracker(t, back.Spec().NumSamples, 20)

	for epoch := 0; epoch < 3; epoch++ {
		runJobEpoch(t, jobA, trA, epoch, int64(100+epoch))
		runJobEpoch(t, jobB, trB, epoch, int64(200+epoch))
	}

	if jobA.Stats().Requests() == 0 || jobB.Stats().Requests() == 0 {
		t.Fatal("per-job stats not attributed")
	}
	// Both jobs must have been probed and have a benefit estimate.
	for _, id := range []JobID{jobA.ID(), jobB.ID()} {
		ratio, _, err := coord.Benefit(id)
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= 0 {
			t.Fatalf("job %d benefit = %g", id, ratio)
		}
	}
	// The shared H-list must be installed and non-empty.
	if srv.ActiveHList().Len() == 0 {
		t.Fatal("coordinator never installed an H-list")
	}
}

func TestCoordinatorProbePhases(t *testing.T) {
	back := testBackend(t)
	// A small probe so both phases fit inside the test dataset's epoch.
	srv, err := NewServer(back, DefaultConfig(back.Spec().TotalBytes()/5), sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	srv.probeBatches = 2
	coord := NewCoordinator(srv, CoordAIV)
	job, _ := coord.Register("j", sampling.DefaultIIS())
	tr := trainedTracker(t, back.Spec().NumSamples, 1)

	rng := rand.New(rand.NewSource(5))
	sched := job.BeginEpoch(0, 0, tr, rng)
	batches := sched.Batches(64)
	target := job.probeTarget()

	// Phase 0: all cacheless — every request must be a backend miss.
	before := back.Stats().SampleReads
	var at simclock.Time
	served, bi := 0, 0
	for served < target && bi < len(batches) {
		end, s := job.FetchBatch(at, batches[bi])
		at = end
		served += len(s)
		bi++
	}
	delta := back.Stats().SampleReads - before
	if delta != int64(served) {
		t.Fatalf("probe phase 0: %d backend reads for %d requests", delta, served)
	}
	if job.j.probePhase != 1 {
		t.Fatalf("after %d probe samples probePhase = %d, want 1", served, job.j.probePhase)
	}
	for cached := 0; cached < target && bi < len(batches); bi++ {
		end, s := job.FetchBatch(at, batches[bi])
		at = end
		cached += len(s)
	}
	if job.j.probePhase != 2 {
		t.Fatalf("after probe, phase = %d, want 2", job.j.probePhase)
	}
	if !job.j.probed {
		t.Fatal("benefit never computed")
	}
}

func TestCoordinatorSingleJobPolicyFavors(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	coord := NewCoordinator(srv, CoordSingleJob)
	jobA, _ := coord.Register("a", sampling.DefaultIIS())
	jobB, _ := coord.Register("b", sampling.DefaultIIS())
	coord.SetFavored(jobA.ID())

	trA := trainedTracker(t, back.Spec().NumSamples, 31)
	trB := trainedTracker(t, back.Spec().NumSamples, 32)
	runJobEpoch(t, jobA, trA, 0, 1)
	runJobEpoch(t, jobB, trB, 0, 2)
	runJobEpoch(t, jobA, trA, 1, 3)

	// The installed H-list must equal job A's top samples, not B's.
	hl := srv.ActiveHList()
	if hl.Len() == 0 {
		t.Fatal("no H-list installed")
	}
	wantTop := trA.BuildHList(1)
	if !hl.Contains(wantTop.Items[0].ID) {
		t.Fatalf("favored job's top sample %d not in installed H-list", wantTop.Items[0].ID)
	}
	_ = jobB
}

func TestCoordinatorIneligibleJobExcluded(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	coord := NewCoordinator(srv, CoordAIV)
	jobA, _ := coord.Register("a", sampling.DefaultIIS())
	jobB, _ := coord.Register("b", sampling.DefaultIIS())

	trA := trainedTracker(t, back.Spec().NumSamples, 41)
	trB := trainedTracker(t, back.Spec().NumSamples, 42)
	jobA.j.rivs = trA.Percentiles()
	jobB.j.rivs = trB.Percentiles()
	jobA.j.ownHList = trA.BuildHList(back.Spec().NumSamples / 5)
	jobB.j.ownHList = trB.BuildHList(back.Spec().NumSamples / 5)
	jobA.j.eligible = true
	jobA.j.benefit = 3
	jobB.j.eligible = false // not cache-eligible: must not influence AIV
	jobB.j.benefit = 100

	coord.recompute()
	hl := srv.ActiveHList()
	// The list must rank by job A's percentiles alone.
	topA := trA.BuildHList(5)
	for _, it := range topA.Items {
		if !hl.Contains(it.ID) {
			t.Fatalf("eligible job's top sample %d missing from AIV H-list", it.ID)
		}
	}
}

func TestCoordinatorAIVWeightsByBenefit(t *testing.T) {
	// Two jobs with opposite rankings; the higher-benefit job must dominate
	// the combined list.
	n := 100
	back := testBackend(t)
	cfg := DefaultConfig(int64(n/5) * 1000)
	srv, err := NewServer(back, cfg, sampling.DefaultIIS(), 7)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(srv, CoordAIV)
	jobA, _ := coord.Register("a", sampling.DefaultIIS())
	jobB, _ := coord.Register("b", sampling.DefaultIIS())

	rivsA := make([]float64, back.Spec().NumSamples)
	rivsB := make([]float64, back.Spec().NumSamples)
	for i := range rivsA {
		rivsA[i] = float64(i) / float64(len(rivsA)-1)
		rivsB[i] = 1 - rivsA[i]
	}
	jobA.j.rivs, jobA.j.benefit, jobA.j.eligible = rivsA, 5.0, true
	jobB.j.rivs, jobB.j.benefit, jobB.j.eligible = rivsB, 1.6, true
	itemsA := make([]sampling.Item, 0)
	itemsB := make([]sampling.Item, 0)
	nn := back.Spec().NumSamples
	for i := 0; i < nn; i++ {
		if rivsA[i] > 0.7 {
			itemsA = append(itemsA, sampling.Item{ID: dataset.SampleID(i), IV: rivsA[i]})
		}
		if rivsB[i] > 0.7 {
			itemsB = append(itemsB, sampling.Item{ID: dataset.SampleID(i), IV: rivsB[i]})
		}
	}
	jobA.j.ownHList = sampling.NewHList(itemsA)
	jobB.j.ownHList = sampling.NewHList(itemsB)
	coord.recompute()

	hl := srv.ActiveHList()
	if hl.Len() == 0 {
		t.Fatal("no list installed")
	}
	// Job A ranks high IDs first; with 3× the benefit its preference wins.
	topID := hl.Items[0].ID
	if int(topID) < back.Spec().NumSamples/2 {
		t.Fatalf("top AIV sample %d comes from the low-benefit job's ranking", topID)
	}
}

func TestCoordinatorUnknownJobBenefit(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	coord := NewCoordinator(srv, CoordAIV)
	if _, _, err := coord.Benefit(99); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestCoordinatorRejectsBadIIS(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	coord := NewCoordinator(srv, CoordAIV)
	if _, err := coord.Register("bad", sampling.IISConfig{}); err == nil {
		t.Fatal("invalid IIS config accepted")
	}
}

var _ = dataset.SampleID(0) // keep import if helpers change
