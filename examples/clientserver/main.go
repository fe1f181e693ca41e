// Clientserver: the end-to-end RPC path. Starts a real iCache TCP server on
// a loopback port (the role of `icache-server`), then drives it exactly
// like the paper's PyTorch client, through train.RunWireEpoch: push an
// H-list, fetch mini-batches, train them through train.Learner, and print
// each epoch's server-side cache statistics and the accuracy model's Top-1.
// Every payload is integrity-checked against the dataset generator.
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
		ep, err := train.RunWireEpoch(learner, rng, []*rpc.Client{client}, epoch, 256, false)
		if err != nil {
			log.Fatal(err)
		}
		st := ep.Server
		fmt.Printf("epoch %d: trained %d samples in %s | hits=%d misses=%d substitutions=%d hcache=%d lcache=%d | top-1 %.2f%%\n",
			epoch, ep.Trained, ep.Elapsed.Round(time.Millisecond),
			st.Hits, st.Misses, st.Substitutions, st.HCacheLen, st.LCacheLen, ep.Top1)
	}
	fmt.Println("all payloads verified — the cache served exactly the bytes the dataset defines")
}
