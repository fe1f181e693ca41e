package train

import (
	"testing"
	"time"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/storage"
)

func smallSpec() dataset.Spec {
	return dataset.Spec{Name: "small", NumSamples: 4000, MeanSampleBytes: 2000, Seed: 2}
}

func smallConfig(model ModelProfile, epochs int) Config {
	cfg := DefaultConfig(model, smallSpec())
	cfg.Epochs = epochs
	cfg.BatchSize = 128
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(ShuffleNet, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"batch":   func(c *Config) { c.BatchSize = 0 },
		"workers": func(c *Config) { c.Workers = 0 },
		"gpus":    func(c *Config) { c.GPUs = 0 },
		"epochs":  func(c *Config) { c.Epochs = 0 },
	} {
		c := smallConfig(ShuffleNet, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: bad config validated", name)
		}
	}
}

func realService(t *testing.T, spec dataset.Spec) DataService {
	t.Helper()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	return noCache(back)
}

// noCache is the cacheless reader: the engine over a policy that admits
// nothing, so every request reads the backend.
func noCache(back *storage.Backend) DataService {
	return icache.NewBaselineServer(back, icache.Baseline{Name: "nocache", Policy: cache.None()})
}

func TestJobRunsAllEpochs(t *testing.T) {
	spec := smallSpec()
	cfg := smallConfig(ShuffleNet, 3)
	job, err := NewJob(cfg, realService(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	rs := job.Run()
	if len(rs.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(rs.Epochs))
	}
	if !job.Done() {
		t.Fatal("job not done after Run")
	}
	for i, e := range rs.Epochs {
		if e.Duration <= 0 {
			t.Fatalf("epoch %d duration %v", i, e.Duration)
		}
		if e.SamplesFetched != spec.NumSamples {
			t.Fatalf("epoch %d fetched %d, want %d (uniform)", i, e.SamplesFetched, spec.NumSamples)
		}
		if e.SamplesTrained != spec.NumSamples {
			t.Fatalf("epoch %d trained %d", i, e.SamplesTrained)
		}
	}
	// Time must advance monotonically across epochs.
	if job.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestJobEpochDurationAtLeastComputeAndStall(t *testing.T) {
	spec := smallSpec()
	job, err := NewJob(smallConfig(ResNet50, 2), realService(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	rs := job.Run()
	for _, e := range rs.Epochs {
		if e.Compute+e.IOStall > e.Duration+time.Millisecond {
			t.Fatalf("epoch %d: compute %v + stall %v exceeds duration %v", e.Epoch, e.Compute, e.IOStall, e.Duration)
		}
		if e.IOStall <= 0 {
			t.Fatalf("I/O-bound run reported no stall")
		}
	}
}

func TestMoreWorkersReduceEpochTime(t *testing.T) {
	spec := smallSpec()
	run := func(workers int) time.Duration {
		cfg := smallConfig(ShuffleNet, 2)
		cfg.Workers = workers
		job, err := NewJob(cfg, realService(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		rs := job.Run()
		return rs.Epochs[1].Duration
	}
	if t2, t8 := run(2), run(8); t8 >= t2 {
		t.Fatalf("8 workers (%v) not faster than 2 (%v)", t8, t2)
	}
}

func TestMoreGPUsReduceComputeNotIO(t *testing.T) {
	spec := smallSpec()
	run := func(gpus int) metrics.EpochStats {
		cfg := smallConfig(ResNet50, 2)
		cfg.BatchSize = 512 // large enough that compute dominates all-reduce
		cfg.GPUs = gpus
		job, err := NewJob(cfg, realService(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		return job.Run().Epochs[1]
	}
	one, four := run(1), run(4)
	if four.Compute >= one.Compute {
		t.Fatalf("4 GPUs compute %v not below 1 GPU %v", four.Compute, one.Compute)
	}
	// In the I/O-bound regime total time barely moves (the paper's Fig. 12
	// observation for Default).
	if four.Duration < one.Duration/2 {
		t.Fatalf("I/O-bound job sped up 2×+ from GPUs alone: %v vs %v", four.Duration, one.Duration)
	}
}

func TestTmpfsFasterThanRemote(t *testing.T) {
	spec := smallSpec()
	mk := func(cfg storage.Config) time.Duration {
		back, err := storage.NewBackend(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		job, err := NewJob(smallConfig(ResNet18, 2), noCache(back))
		if err != nil {
			t.Fatal(err)
		}
		return job.Run().Epochs[1].Duration
	}
	local, remote := mk(storage.Tmpfs()), mk(storage.OrangeFS())
	if local*3 > remote {
		t.Fatalf("tmpfs epoch %v not ≥3× faster than remote %v", local, remote)
	}
}

func TestLossObservationsFeedTracker(t *testing.T) {
	spec := smallSpec()
	job, err := NewJob(smallConfig(ShuffleNet, 1), realService(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	init := job.Tracker().Value(0)
	changed := 0
	for id := 0; id < spec.NumSamples; id++ {
		if job.Tracker().Value(dataset.SampleID(id)) != init {
			changed++
		}
	}
	if changed < spec.NumSamples/2 {
		t.Fatalf("only %d tracker values changed after a full epoch", changed)
	}
}

func TestAccuracyConvergesTowardBase(t *testing.T) {
	spec := smallSpec()
	cfg := smallConfig(ShuffleNet, 60)
	job, err := NewJob(cfg, realService(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	rs := job.Run()
	final := rs.FinalTop1()
	if final < ShuffleNet.BaseTop1-1.5 || final > ShuffleNet.BaseTop1+1 {
		t.Fatalf("uniform training converged to %g, want ≈%g", final, ShuffleNet.BaseTop1)
	}
	if rs.FinalTop5() < final {
		t.Fatal("Top-5 below Top-1")
	}
	// Convergence: early accuracy well below late.
	if rs.Epochs[2].Top1 >= rs.Epochs[59].Top1 {
		t.Fatal("no convergence trend")
	}
}

func TestRunConcurrentInterleavesJobs(t *testing.T) {
	spec := smallSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs share one backend: each must be slower than a lone job.
	lone, err := NewJob(smallConfig(ShuffleNet, 2), realService(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	loneTime := lone.Run().AvgEpochTime()

	a, err := NewJob(smallConfig(ShuffleNet, 2), noCache(back))
	if err != nil {
		t.Fatal(err)
	}
	cfgB := smallConfig(ShuffleNet, 2)
	cfgB.Seed = 99
	b, err := NewJob(cfgB, noCache(back))
	if err != nil {
		t.Fatal(err)
	}
	RunConcurrent(a, b)
	if !a.Done() || !b.Done() {
		t.Fatal("concurrent jobs not finished")
	}
	if a.Results().AvgEpochTime() <= loneTime || b.Results().AvgEpochTime() <= loneTime {
		t.Fatalf("shared-backend jobs (%v, %v) not slower than lone job (%v) — no contention",
			a.Results().AvgEpochTime(), b.Results().AvgEpochTime(), loneTime)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := smallSpec()
	run := func() metrics.RunStats {
		job, err := NewJob(smallConfig(ResNet18, 2), realService(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		return job.Run()
	}
	a, b := run(), run()
	if a.AvgEpochTime() != b.AvgEpochTime() || a.FinalTop1() != b.FinalTop1() {
		t.Fatalf("same seed diverged: %v/%g vs %v/%g", a.AvgEpochTime(), a.FinalTop1(), b.AvgEpochTime(), b.FinalTop1())
	}
}
