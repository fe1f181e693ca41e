// Quickstart: simulate one I/O-bound training job on CIFAR10 twice — once
// with the paper's Default setup (LRU cache over remote storage) and once
// with iCache — and print the per-epoch comparison the paper's headline
// claim is about.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"icache/internal/dataset"
	"icache/internal/experiments"
	"icache/internal/metrics"
	"icache/internal/storage"
	"icache/internal/train"
)

func main() {
	spec := dataset.CIFAR10()

	run := func(name string, scheme experiments.Scheme) metrics.RunStats {
		// A 20% cache over remote storage, as in the paper.
		svc, _, err := experiments.NewService(scheme, spec, storage.OrangeFS(), 0.2, 42)
		if err != nil {
			log.Fatal(err)
		}
		cfg := train.DefaultConfig(train.ResNet18, spec)
		cfg.Epochs = 12
		job, err := train.NewJob(cfg, svc)
		if err != nil {
			log.Fatal(err)
		}
		rs := job.Run()
		fmt.Printf("\n%s:\n", name)
		for _, e := range rs.Epochs {
			fmt.Printf("  epoch %2d: %8s total, %8s stalled on I/O, hit ratio %5.1f%%, top-1 %.2f%%\n",
				e.Epoch, e.Duration.Round(time.Millisecond), e.IOStall.Round(time.Millisecond),
				100*e.Cache.HitRatio(), e.Top1)
		}
		return rs
	}

	def := run("Default (LRU cache, uniform sampling)", experiments.SchemeDefault)
	ic := run("iCache (IIS + H-cache + L-cache)", experiments.SchemeICache)

	fmt.Printf("\nsteady-state speedup (last 4 epochs): %.2fx\n",
		float64(tail(def, 4).AvgEpochTime())/float64(tail(ic, 4).AvgEpochTime()))
}

// tail keeps the last n epochs of a run.
func tail(rs metrics.RunStats, n int) metrics.RunStats {
	if len(rs.Epochs) > n {
		rs.Epochs = rs.Epochs[len(rs.Epochs)-n:]
	}
	return rs
}
