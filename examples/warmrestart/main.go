// Warmrestart: the operational story of a cache-service restart. A live
// iCache server warms up over a few epochs, checkpoints, and dies; a
// replacement restores the checkpoint (rehydrating payloads from the
// backend) and serves its first batches at full hit ratio — no cold-start
// tax on the training job, whose client rides through the restart with a
// transparent reconnect. Each epoch is train.RunWireEpoch, which verifies
// every payload.
//
//	go run ./examples/warmrestart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

func main() {
	spec := dataset.Spec{Name: "demo", NumSamples: 10000, MeanSampleBytes: 3073, Seed: 7}
	ckpt := filepath.Join(os.TempDir(), "icache-warmrestart.ckpt")
	defer os.Remove(ckpt)

	newServer := func() *rpc.Server {
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
		return rpc.NewServer(cacheSrv, source)
	}

	// First lifetime, on a fixed port so the client can reconnect.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1 := newServer()
	go srv1.Serve(ln)

	client, err := rpc.Dial(addr, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	learner, err := train.NewLearner(train.DefaultConfig(train.ResNet18, spec), train.SubSourceLCache)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))

	runEpoch := func(epoch int) {
		ep, err := train.RunWireEpoch(learner, rng, []*rpc.Client{client}, epoch, 256, false)
		if err != nil {
			log.Fatal(err)
		}
		st := ep.Server
		fmt.Printf("epoch %d: server hits=%d misses=%d subs=%d (hcache=%d) | top-1 %.2f%%\n",
			epoch, st.Hits, st.Misses, st.Substitutions, st.HCacheLen, ep.Top1)
	}

	fmt.Println("-- first server lifetime: warming up --")
	for e := 0; e < 3; e++ {
		runEpoch(e)
	}
	if err := srv1.SaveCheckpointFile(ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- checkpoint saved; killing the server --")
	srv1.Close()

	// Second lifetime on the same address: warm restore.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	srv2 := newServer()
	if _, err := srv2.LoadCheckpointFile(ckpt, true); err != nil {
		log.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()
	fmt.Println("-- replacement server restored warm; training continues --")
	runEpoch(3) // the client reconnects transparently

	m := srv2.Metrics()
	fmt.Printf("post-restart: hit ratio %.1f%% with %d H-residents already in place\n",
		100*m.HitRatio(), m.HCacheLen)
}
