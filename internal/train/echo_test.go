package train

import (
	"testing"

	"icache/internal/cache"
	"icache/internal/metrics"
	"icache/internal/storage"
)

func TestEchoConvertsStallToCompute(t *testing.T) {
	for name, mk := range map[string]func(*storage.Backend, Config) (*Job, error){
		"one node, no cache": func(back *storage.Backend, cfg Config) (*Job, error) {
			return NewJob(cfg, cache.NewNoCache(back))
		},
		"two nodes, LRU each": func(back *storage.Backend, cfg Config) (*Job, error) {
			return NewDistJob(cfg, cache.NewDistDefault(back, 2, back.Spec().TotalBytes()/5))
		},
	} {
		run := func(factor int) metrics.RunStats {
			back, err := storage.NewBackend(smallSpec(), storage.OrangeFS())
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig(ResNet50, 3)
			cfg.EchoFactor = factor
			job, err := mk(back, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return job.Run()
		}
		plain, echoed := run(0), run(2)
		p, e := plain.Epochs[2], echoed.Epochs[2]
		if e.IOStall >= p.IOStall {
			t.Errorf("%s: echo did not reduce stall: %v vs %v", name, e.IOStall, p.IOStall)
		}
		if e.Compute <= p.Compute {
			t.Errorf("%s: echo did not add compute: %v vs %v", name, e.Compute, p.Compute)
		}
		// Epoch duration is bounded by data arrival either way: within 5%.
		diff := float64(e.Duration-p.Duration) / float64(p.Duration)
		if diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: echo changed epoch duration by %.1f%%", name, 100*diff)
		}
		// Replayed gradients cost accuracy.
		if echoed.FinalTop1() >= plain.FinalTop1() {
			t.Errorf("%s: echo accuracy %g not below plain %g", name, echoed.FinalTop1(), plain.FinalTop1())
		}
	}
}

func TestEchoFactorValidation(t *testing.T) {
	back, err := storage.NewBackend(smallSpec(), storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(ShuffleNet, 1)
	cfg.EchoFactor = -1
	if _, err := NewJob(cfg, cache.NewNoCache(back)); err == nil {
		t.Fatal("negative echo factor accepted")
	}
}
