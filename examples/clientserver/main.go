// Clientserver: the end-to-end RPC path. Starts a real iCache TCP server on
// a loopback port (the role of `icache-server`), then drives it exactly
// like the paper's PyTorch client: push an H-list, fetch mini-batches, train
// them through train.Learner, print server-side cache statistics and the
// accuracy model's Top-1. Every payload is integrity-checked against the
// dataset generator.
//
//	go run ./examples/clientserver
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

func main() {
	// A small dataset keeps the demo snappy; the geometry is CIFAR-like.
	spec := dataset.Spec{Name: "demo", NumSamples: 10000, MeanSampleBytes: 3073, Seed: 7}

	backend, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		log.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(backend, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 42)
	if err != nil {
		log.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		log.Fatal(err)
	}
	srv := rpc.NewServer(cacheSrv, source)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("iCache server listening on %s\n", ln.Addr())

	client, err := rpc.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	learner, err := train.NewLearner(train.DefaultConfig(train.ResNet18, spec), train.SubSourceLCache)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))

	for epoch := 0; epoch < 3; epoch++ {
		learner.BeginEpoch(epoch)
		sched, hlist := sampling.IISSchedule(learner.Tracker(), sampling.DefaultIIS(), rng)
		if err := client.UpdateImportance(hlist.Items); err != nil {
			log.Fatal(err)
		}
		if err := client.BeginEpoch(epoch); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for _, batch := range sched.Batches(256) {
			samples, err := client.GetBatch(batch)
			if err != nil {
				log.Fatal(err)
			}
			for k, s := range samples {
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					log.Fatalf("integrity check failed: %v", err)
				}
				learner.Train(batch[k], s.ID, true)
			}
		}
		trained := learner.Trained()
		top1, _ := learner.EndEpoch(sched.Fetch, 0)
		st, err := client.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: trained %d samples in %s | hits=%d misses=%d substitutions=%d hcache=%d lcache=%d | top-1 %.2f%%\n",
			epoch, trained, time.Since(start).Round(time.Millisecond),
			st.Hits, st.Misses, st.Substitutions, st.HCacheLen, st.LCacheLen, top1)
	}
	fmt.Println("all payloads verified — the cache served exactly the bytes the dataset defines")
}
