package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCacheStatsHitRatio(t *testing.T) {
	var s CacheStats
	if s.HitRatio() != 0 {
		t.Fatal("empty stats hit ratio != 0")
	}
	s = CacheStats{Hits: 20, Misses: 70, Substitutions: 10}
	if got := s.HitRatio(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("HitRatio = %g, want 0.3 (substitutions count as hits)", got)
	}
	if s.Requests() != 100 {
		t.Fatalf("Requests = %d, want 100", s.Requests())
	}
}

func TestCacheStatsAdd(t *testing.T) {
	a := CacheStats{Hits: 1, Misses: 2, Substitutions: 3, Inserts: 4, Evictions: 5, Rejections: 6}
	b := a
	a.Add(b)
	if a.Hits != 2 || a.Misses != 4 || a.Substitutions != 6 || a.Inserts != 8 || a.Evictions != 10 || a.Rejections != 12 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestCacheStatsString(t *testing.T) {
	s := CacheStats{Hits: 1, Misses: 1}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestRunStatsAverages(t *testing.T) {
	r := RunStats{Scheme: "x", Epochs: []EpochStats{
		{Duration: 10 * time.Second, IOStall: 4 * time.Second, Top1: 0.8, Top5: 0.95},
		{Duration: 20 * time.Second, IOStall: 6 * time.Second, Top1: 0.9, Top5: 0.99},
	}}
	if got := r.AvgEpochTime(); got != 15*time.Second {
		t.Fatalf("AvgEpochTime = %v, want 15s", got)
	}
	if got := r.AvgIOStall(); got != 5*time.Second {
		t.Fatalf("AvgIOStall = %v, want 5s", got)
	}
	if r.FinalTop1() != 0.9 || r.FinalTop5() != 0.99 {
		t.Fatalf("final accuracy = %g/%g", r.FinalTop1(), r.FinalTop5())
	}
}

func TestRunStatsEmpty(t *testing.T) {
	var r RunStats
	if r.AvgEpochTime() != 0 || r.AvgIOStall() != 0 || r.FinalTop1() != 0 || r.FinalTop5() != 0 {
		t.Fatal("empty RunStats not all-zero")
	}
}

func TestRunStatsTotalCache(t *testing.T) {
	r := RunStats{Epochs: []EpochStats{
		{Cache: CacheStats{Hits: 1}},
		{Cache: CacheStats{Hits: 2, Misses: 3}},
	}}
	c := r.TotalCache()
	if c.Hits != 3 || c.Misses != 3 {
		t.Fatalf("TotalCache = %+v", c)
	}
}

func TestSpeedup(t *testing.T) {
	base := RunStats{Epochs: []EpochStats{{Duration: 20 * time.Second}}}
	fast := RunStats{Epochs: []EpochStats{{Duration: 10 * time.Second}}}
	if got := Speedup(base, fast); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Speedup = %g, want 2", got)
	}
	if !math.IsInf(Speedup(base, RunStats{}), 1) {
		t.Fatal("zero-time run should give +Inf speedup")
	}
}

// TestRatioGuards table-tests every ratio-style metric against
// zero-denominator / empty-input edges: no NaN, no surprise Inf.
func TestRatioGuards(t *testing.T) {
	t.Run("Speedup", func(t *testing.T) {
		real := RunStats{Epochs: []EpochStats{{Duration: time.Second}}}
		cases := []struct {
			name    string
			b, r    RunStats
			want    float64
			wantInf bool
		}{
			{name: "both-empty", b: RunStats{}, r: RunStats{}, want: 1},
			{name: "zero-baseline", b: RunStats{}, r: real, want: 0},
			{name: "zero-run", b: real, r: RunStats{}, wantInf: true},
			{name: "both-real", b: real, r: real, want: 1},
		}
		for _, c := range cases {
			got := Speedup(c.b, c.r)
			if math.IsNaN(got) {
				t.Errorf("%s: Speedup is NaN", c.name)
			}
			if c.wantInf && !math.IsInf(got, 1) {
				t.Errorf("%s: Speedup = %g, want +Inf", c.name, got)
			}
			if !c.wantInf && got != c.want {
				t.Errorf("%s: Speedup = %g, want %g", c.name, got, c.want)
			}
		}
	})
	t.Run("HitRatio", func(t *testing.T) {
		cases := []struct {
			name string
			s    CacheStats
			want float64
		}{
			{name: "zero", s: CacheStats{}, want: 0},
			{name: "all-hits", s: CacheStats{Hits: 4}, want: 1},
			{name: "mixed", s: CacheStats{Hits: 1, Substitutions: 2, Misses: 3}, want: 0.5},
		}
		for _, c := range cases {
			if got := c.s.HitRatio(); got != c.want || math.IsNaN(got) {
				t.Errorf("%s: HitRatio = %g, want %g", c.name, got, c.want)
			}
		}
	})
	t.Run("BufferReuseRate", func(t *testing.T) {
		cases := []struct {
			name string
			s    ServingStats
			want float64
		}{
			{name: "zero", s: ServingStats{}, want: 0},
			{name: "all-allocs", s: ServingStats{BufferGets: 3, BufferAllocs: 3}, want: 0},
			{name: "half", s: ServingStats{BufferGets: 4, BufferAllocs: 2}, want: 0.5},
		}
		for _, c := range cases {
			if got := c.s.BufferReuseRate(); got != c.want || math.IsNaN(got) {
				t.Errorf("%s: BufferReuseRate = %g, want %g", c.name, got, c.want)
			}
		}
	})
	t.Run("Percentile", func(t *testing.T) {
		var empty Series
		for _, p := range []float64{-10, 0, 50, 100, 200, math.NaN()} {
			if got := empty.Percentile(p); got != 0 {
				t.Errorf("empty.Percentile(%g) = %g, want 0", p, got)
			}
		}
		one := Series{7}
		for _, p := range []float64{0, 33, 100, math.NaN()} {
			if got := one.Percentile(p); got != 7 {
				t.Errorf("one.Percentile(%g) = %g, want 7", p, got)
			}
		}
	})
}

func TestSnapshotUnder(t *testing.T) {
	var mu sync.Mutex
	src := CacheStats{Hits: 2, Misses: 1}
	got := SnapshotUnder(&mu, &src)
	if got != src {
		t.Fatalf("SnapshotUnder = %+v, want %+v", got, src)
	}
	// The helper must have released the lock.
	if !mu.TryLock() {
		t.Fatal("SnapshotUnder left the lock held")
	}
	mu.Unlock()
}

func TestSeriesSummaries(t *testing.T) {
	s := Series{3, 1, 2}
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("mean/min/max = %g/%g/%g", s.Mean(), s.Min(), s.Max())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.Percentile(50) != 0 {
		t.Fatal("empty series summaries not zero")
	}
}

func TestSeriesPercentile(t *testing.T) {
	s := Series{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Linear interpolation between closest ranks: rank 0.5*(10-1) = 4.5
	// lands midway between the 5th and 6th order statistics.
	if got := s.Percentile(50); got != 5.5 {
		t.Fatalf("P50 = %g, want 5.5", got)
	}
	if got := s.Percentile(100); got != 10 {
		t.Fatalf("P100 = %g, want 10", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %g, want 1", got)
	}
	if got := s.Percentile(-5); got != 1 {
		t.Fatalf("P(-5) = %g, want clamp to 1", got)
	}
	if got := s.Percentile(200); got != 10 {
		t.Fatalf("P200 = %g, want clamp to 10", got)
	}
	// Percentile must not reorder the caller's slice.
	if s[0] != 1 || s[9] != 10 {
		t.Fatal("Percentile mutated input")
	}
}
