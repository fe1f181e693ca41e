// Distributed: data-parallel training on a two-node cluster over a shared
// NFS backend, reproducing §V-G in miniature. The distributed iCache keeps
// a shared key-value directory so no sample is cached twice; the baseline
// runs an uncoordinated LRU per node. Compare epoch times, remote-cache
// hits, and directory occupancy.
//
//	go run ./examples/distributed
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
	spec := dataset.Spec{Name: "mini-cifar", NumSamples: 20000, MeanSampleBytes: 3073, Seed: 5}
	perNode := spec.TotalBytes() / 5
	const nodes = 2

	runDist := func(name string, mk func(*storage.Backend) (train.DistService, error)) metrics.RunStats {
		backend, err := storage.NewBackend(spec, storage.NFS())
		if err != nil {
			log.Fatal(err)
		}
		svc, err := mk(backend)
		if err != nil {
			log.Fatal(err)
		}
		cfg := train.DefaultConfig(train.ResNet18, spec)
		cfg.Epochs = 8
		job, err := train.NewDistJob(cfg, svc)
		if err != nil {
			log.Fatal(err)
		}
		rs := job.Run()
		fmt.Printf("%-16s avg epoch %8s, hit ratio %.1f%%\n",
			name, rs.AvgEpochTime().Round(time.Millisecond), 100*rs.TotalCache().HitRatio())
		return rs
	}

	fmt.Printf("%d-node data-parallel training, shared NFS backend:\n", nodes)
	def := runDist("default (LRU/node)", func(b *storage.Backend) (train.DistService, error) {
		return icache.NewDistDefault(b, nodes, perNode), nil
	})

	var cluster *icache.Cluster
	ic := runDist("distributed iCache", func(b *storage.Backend) (train.DistService, error) {
		cl, err := icache.NewCluster(b, icache.DefaultClusterConfig(nodes, perNode), sampling.DefaultIIS(), 42)
		cluster = cl
		return cl, err
	})

	fmt.Printf("\nspeedup: %.2fx\n", float64(def.AvgEpochTime())/float64(ic.AvgEpochTime()))
	fmt.Printf("remote-cache hits: %d; directory entries: %d (no sample cached twice)\n",
		cluster.RemoteHits(), cluster.DirectoryLen())
}
