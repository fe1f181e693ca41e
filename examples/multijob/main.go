// Multijob: two training jobs (a light ShuffleNet and a heavy ResNet50)
// share one iCache server on the same dataset, reproducing §V-H in
// miniature: the coordinator probes each job's caching benefit, aggregates
// relative importance values, and manages the shared cache for the joint
// good. Compare against the same two jobs on an uncoordinated shared LRU.
//
//	go run ./examples/multijob
package main

import (
	"fmt"
	"log"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

func main() {
	spec := dataset.Spec{Name: "mini-cifar", NumSamples: 20000, MeanSampleBytes: 3073, Seed: 3}
	capBytes := spec.TotalBytes() / 5

	backend, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := icache.NewServer(backend, icache.DefaultConfig(capBytes), sampling.DefaultIIS(), 42)
	if err != nil {
		log.Fatal(err)
	}
	coord := icache.NewCoordinator(srv, icache.CoordAIV)

	shuffleHandle, err := coord.Register("shufflenet", sampling.DefaultIIS())
	if err != nil {
		log.Fatal(err)
	}
	resnetHandle, err := coord.Register("resnet50", sampling.DefaultIIS())
	if err != nil {
		log.Fatal(err)
	}

	mkJob := func(model train.ModelProfile, svc train.DataService, seed int64) *train.Job {
		cfg := train.DefaultConfig(model, spec)
		cfg.Epochs = 8
		cfg.Seed = seed
		job, err := train.NewJob(cfg, svc)
		if err != nil {
			log.Fatal(err)
		}
		return job
	}
	jobA := mkJob(train.ShuffleNet, shuffleHandle, 1)
	jobB := mkJob(train.ResNet50, resnetHandle, 2)

	// Interleave the two jobs on the shared virtual timeline so the cache
	// and the storage backend see their requests in time order.
	train.RunConcurrent(jobA, jobB)

	report := func(name string, job *train.Job, handle *icache.JobHandle) {
		rs := job.Results()
		ratio, eligible, err := coord.Benefit(handle.ID())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s avg epoch %8s, final top-1 %.2f%%, hit ratio %.1f%%, caching benefit %.2f (eligible=%v)\n",
			name, rs.AvgEpochTime().Round(time.Millisecond), rs.FinalTop1(),
			100*totalHit(rs), ratio, eligible)
	}
	fmt.Println("two jobs sharing one iCache (AIV coordination):")
	report("shufflenet", jobA, shuffleHandle)
	report("resnet50", jobB, resnetHandle)
	v := srv.View()
	fmt.Printf("shared H-list: %d samples; cache regions: H=%d L=%d\n", srv.ActiveHList().Len(), v.HLen, v.LLen)
}

func totalHit(rs metrics.RunStats) float64 { return rs.TotalCache().HitRatio() }
