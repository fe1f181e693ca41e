package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"icache/internal/dataset"
)

func mustTracker(t *testing.T, n int, init, decay float64) *Tracker {
	t.Helper()
	tr, err := NewTracker(n, init, decay)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewTracker(10, 1, 1.0); err == nil {
		t.Error("decay=1 accepted")
	}
	if _, err := NewTracker(10, 1, -0.1); err == nil {
		t.Error("decay<0 accepted")
	}
}

func TestTrackerInitAndObserve(t *testing.T) {
	tr := mustTracker(t, 4, 3.0, 0)
	if tr.Value(2) != 3.0 {
		t.Fatalf("initial IV = %g, want 3.0", tr.Value(2))
	}
	tr.Observe(2, 0.5)
	if tr.Value(2) != 0.5 {
		t.Fatalf("decay=0: IV = %g, want latest loss 0.5", tr.Value(2))
	}
	if tr.Value(1) != 3.0 {
		t.Fatal("unobserved sample's IV changed")
	}
}

func TestTrackerEMADecay(t *testing.T) {
	tr := mustTracker(t, 1, 1.0, 0.5)
	tr.Observe(0, 0)
	if got := tr.Value(0); got != 0.5 {
		t.Fatalf("EMA after one zero-loss obs = %g, want 0.5", got)
	}
	tr.Observe(0, 0)
	if got := tr.Value(0); got != 0.25 {
		t.Fatalf("EMA after two = %g, want 0.25", got)
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	tr := mustTracker(t, 3, 1.0, 0)
	vs := tr.Values()
	vs[0] = 99
	if tr.Value(0) == 99 {
		t.Fatal("Values aliases internal state")
	}
}

func TestPercentiles(t *testing.T) {
	tr := mustTracker(t, 5, 0, 0)
	for i, loss := range []float64{0.1, 0.5, 0.3, 0.9, 0.7} {
		tr.Observe(dataset.SampleID(i), loss)
	}
	p := tr.Percentiles()
	want := []float64{0, 0.5, 0.25, 1.0, 0.75}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("percentile[%d] = %g, want %g (all %v)", i, p[i], want[i], p)
		}
	}
}

func TestPercentilesTiesShareRank(t *testing.T) {
	tr := mustTracker(t, 4, 0, 0)
	for i, loss := range []float64{0.5, 0.5, 0.1, 0.9} {
		tr.Observe(dataset.SampleID(i), loss)
	}
	p := tr.Percentiles()
	if p[0] != p[1] {
		t.Fatalf("equal IVs got different percentiles: %g vs %g", p[0], p[1])
	}
	if p[2] != 0 || p[3] != 1 {
		t.Fatalf("extremes wrong: %v", p)
	}
}

func TestPercentilesSingleSample(t *testing.T) {
	tr := mustTracker(t, 1, 0.5, 0)
	if p := tr.Percentiles(); p[0] != 1 {
		t.Fatalf("single-sample percentile = %g, want 1", p[0])
	}
}

func TestBuildHListTopK(t *testing.T) {
	tr := mustTracker(t, 5, 0, 0)
	for i, loss := range []float64{0.1, 0.5, 0.3, 0.9, 0.7} {
		tr.Observe(dataset.SampleID(i), loss)
	}
	h := tr.BuildHList(2)
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if h.Items[0].ID != 3 || h.Items[1].ID != 4 {
		t.Fatalf("top-2 = %+v, want IDs 3 then 4", h.Items)
	}
	if !h.Contains(3) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
}

func TestBuildHListClamps(t *testing.T) {
	tr := mustTracker(t, 3, 1, 0)
	if h := tr.BuildHList(100); h.Len() != 3 {
		t.Fatalf("over-large k: Len = %d, want 3", h.Len())
	}
	if h := tr.BuildHList(-5); h.Len() != 0 {
		t.Fatalf("negative k: Len = %d, want 0", h.Len())
	}
}

func TestNilHListSafe(t *testing.T) {
	var h *HList
	if h.Contains(1) {
		t.Fatal("nil HList contains something")
	}
	if h.Len() != 0 {
		t.Fatal("nil HList has nonzero length")
	}
}

func TestNewHListFromItems(t *testing.T) {
	h := NewHList([]Item{{7, 0.9}, {3, 0.8}})
	if !h.Contains(7) || !h.Contains(3) || h.Contains(1) {
		t.Fatal("membership wrong")
	}
}

func TestUniformScheduleIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := UniformSchedule(1000, rng)
	if len(s.Fetch) != 1000 || s.TrainedCount() != 1000 {
		t.Fatalf("fetch=%d trained=%d, want 1000/1000", len(s.Fetch), s.TrainedCount())
	}
	seen := make(map[dataset.SampleID]bool, 1000)
	for _, id := range s.Fetch {
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
	// It should actually be shuffled.
	inOrder := 0
	for i, id := range s.Fetch {
		if int(id) == i {
			inOrder++
		}
	}
	if inOrder > 100 {
		t.Fatalf("%d/1000 samples at identity position — not shuffled", inOrder)
	}
}

func TestCISScheduleFetchesAllComputesSubset(t *testing.T) {
	tr := mustTracker(t, 1000, 0, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		tr.Observe(dataset.SampleID(i), rng.Float64())
	}
	s := CISSchedule(tr, rand.New(rand.NewSource(2)))
	if len(s.Fetch) != 1000 {
		t.Fatalf("CIS fetched %d, want all 1000", len(s.Fetch))
	}
	trained := s.TrainedCount()
	want := int(cisComputeFraction * 1000)
	if trained < want-80 || trained > want+80 {
		t.Fatalf("CIS trained %d, want ≈%d", trained, want)
	}
	// Every H-sample must be trained.
	h := tr.BuildHList(int(cisHFraction * 1000))
	for i, id := range s.Fetch {
		if h.Contains(id) && !s.Train[i] {
			t.Fatalf("H-sample %d not trained under CIS", id)
		}
	}
}

func TestIISScheduleSelectsSubset(t *testing.T) {
	tr := mustTracker(t, 2000, 0, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		tr.Observe(dataset.SampleID(i), rng.Float64())
	}
	cfg := DefaultIIS()
	s, h := IISSchedule(tr, cfg, rand.New(rand.NewSource(4)))
	if h.Len() != int(cfg.HFraction*2000) {
		t.Fatalf("H-list size %d, want %d", h.Len(), int(cfg.HFraction*2000))
	}
	want := int(cfg.TargetFraction * 2000)
	if len(s.Fetch) < want-150 || len(s.Fetch) > want+150 {
		t.Fatalf("IIS fetched %d, want ≈%d", len(s.Fetch), want)
	}
	if s.TrainedCount() != len(s.Fetch) {
		t.Fatal("IIS fetched samples it does not train")
	}
	// No duplicates: exactly-once within the epoch.
	seen := map[dataset.SampleID]bool{}
	hCount := 0
	for _, id := range s.Fetch {
		if seen[id] {
			t.Fatalf("duplicate fetch of %d", id)
		}
		seen[id] = true
		if h.Contains(id) {
			hCount++
		}
	}
	// Most H-samples selected (prob 0.95 each).
	if float64(hCount) < 0.85*float64(h.Len()) {
		t.Fatalf("only %d/%d H-samples selected", hCount, h.Len())
	}
	// And a meaningful share of L-samples for diversity.
	if lCount := len(s.Fetch) - hCount; lCount < want/4 {
		t.Fatalf("only %d L-samples selected — diversity lost", lCount)
	}
}

func TestIISConfigValidate(t *testing.T) {
	bad := []IISConfig{
		{TargetFraction: 0, HFraction: 0.2, HSelectProb: 0.9},
		{TargetFraction: 1.2, HFraction: 0.2, HSelectProb: 0.9},
		{TargetFraction: 0.7, HFraction: -0.1, HSelectProb: 0.9},
		{TargetFraction: 0.7, HFraction: 0.2, HSelectProb: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if err := DefaultIIS().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBatches(t *testing.T) {
	s := Schedule{Fetch: make([]dataset.SampleID, 10)}
	b := s.Batches(4)
	if len(b) != 3 || len(b[0]) != 4 || len(b[2]) != 2 {
		t.Fatalf("batches = %v", b)
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Batches(0) did not panic")
		}
	}()
	Schedule{}.Batches(0)
}

// Property: IIS never fetches duplicates, never exceeds the dataset, and
// fetch size tracks the target across random importance distributions.
func TestIISScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		tr, err := NewTracker(n, 3, 0.3)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			tr.Observe(dataset.SampleID(i), rng.Float64()*3)
		}
		s, _ := IISSchedule(tr, DefaultIIS(), rng)
		seen := map[dataset.SampleID]bool{}
		for _, id := range s.Fetch {
			if id < 0 || int(id) >= n || seen[id] {
				return false
			}
			seen[id] = true
		}
		target := 0.7 * float64(n)
		return float64(len(s.Fetch)) > 0.5*target && float64(len(s.Fetch)) < 1.4*target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are a monotone map of importance values.
func TestPercentilesMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		tr, _ := NewTracker(n, 0, 0)
		for i := 0; i < n; i++ {
			tr.Observe(dataset.SampleID(i), rng.Float64())
		}
		p := tr.Percentiles()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				vi, vj := tr.Value(dataset.SampleID(i)), tr.Value(dataset.SampleID(j))
				if vi < vj && p[i] >= p[j] {
					return false
				}
				if vi == vj && p[i] != p[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
