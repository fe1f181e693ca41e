package train

import (
	"testing"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func criterionJob(t *testing.T, crit sampling.Criterion, epochs int) *Job {
	t.Helper()
	spec := smallSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(ShuffleNet, epochs)
	cfg.Criterion = crit
	job, err := NewJob(cfg, cache.NewNoCache(back))
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestCriterionValidationInConfig(t *testing.T) {
	spec := smallSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(ShuffleNet, 1)
	cfg.Criterion = sampling.Criterion(42)
	if _, err := NewJob(cfg, cache.NewNoCache(back)); err == nil {
		t.Fatal("bogus criterion accepted")
	}
}

func TestProxyCriterionRefreshesSkippedSamples(t *testing.T) {
	// Under the proxy criterion every sample's importance moves each epoch,
	// including samples never trained; under loss-based it stays at the
	// init value until first trained.
	lossJob := criterionJob(t, sampling.CriterionLoss, 1)
	proxyJob := criterionJob(t, sampling.CriterionProxyModel, 1)

	// Step both jobs a little: enough for beginEpoch to run, before any
	// sample has trained twice.
	lossJob.Step()
	proxyJob.Step()

	spec := smallSpec()
	lossMoved, proxyMoved := 0, 0
	for i := 0; i < spec.NumSamples; i++ {
		if lossJob.Tracker().Value(dataset.SampleID(i)) != trackerInit {
			lossMoved++
		}
		if proxyJob.Tracker().Value(dataset.SampleID(i)) != trackerInit {
			proxyMoved++
		}
	}
	if proxyMoved < spec.NumSamples {
		t.Fatalf("proxy criterion refreshed only %d/%d samples", proxyMoved, spec.NumSamples)
	}
	if lossMoved > spec.NumSamples/2 {
		t.Fatalf("loss criterion moved %d samples before training them", lossMoved)
	}
}

func TestGradUpperCriterionRunsToCompletion(t *testing.T) {
	job := criterionJob(t, sampling.CriterionGradUpper, 2)
	rs := job.Run()
	if len(rs.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(rs.Epochs))
	}
	// The tracker must hold superlinear scores: max should exceed the max
	// raw loss the model can produce (~2.3 → grad-upper ~3.5).
	var maxIV float64
	for i := 0; i < smallSpec().NumSamples; i++ {
		if v := job.Tracker().Value(dataset.SampleID(i)); v > maxIV {
			maxIV = v
		}
	}
	if maxIV <= 2.3 {
		t.Fatalf("grad-upper max IV %g not above raw-loss range", maxIV)
	}
}
