// Command icache-train drives a live icache-server the way the paper's
// PyTorch client does: per epoch (one train.RunWireEpoch) it selects samples
// with I/O-oriented importance sampling, pushes the fresh H-list to the
// server, fetches them in mini-batches over the wire, and trains them
// through train.Learner. Each epoch line also reports the epoch's backend
// cold misses, with the server's other counters, as growth over the epoch. It
// plays the role of the Python training loop, with ResNet18's simulated loss
// dynamics standing in for real SGD, and reports each epoch's Top-1 and
// Top-5 from the accuracy model, charged for the substitutions the client
// actually received.
//
// Usage (with icache-server running):
//
//	icache-train -addr 127.0.0.1:7820 -dataset cifar10 -epochs 3
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/rpc"
	"icache/internal/trace"
	"icache/internal/train"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7820", "icache-server address")
		dsName  = flag.String("dataset", "cifar10", "dataset the server hosts")
		epochs  = flag.Int("epochs", 3, "epochs to run")
		bs      = flag.Int("batch", 256, "mini-batch size")
		workers = flag.Int("workers", 4, "concurrent fetch workers (one connection each, like PyTorch data workers)")
		seed    = flag.Int64("seed", 1, "seed of the sampler and of the accuracy model's jitter")
		clairv  = flag.Bool("clairvoyant", true, "push each epoch's full schedule at the boundary (BeginEpochPlan) so the server pre-places the working set through its prefetch pool; -clairvoyant=false crosses plain boundaries, and the server then prefetches nothing")
		timeout = flag.Duration("timeout", 5*time.Second, "dial timeout")
		traceN  = flag.Int("trace-sample", 0, "trace 1 in N GetBatch requests end to end (0 disables); traced requests carry a trace envelope the server and its peers record spans under")
		traceTo = flag.String("trace-csv", "", "dump the client-side spans of traced requests to this CSV at exit (combine with the server's -trace-csv in icache-trace)")
	)
	flag.Parse()

	spec, err := dataset.ByName(*dsName)
	if err != nil {
		log.Fatalf("icache-train: %v", err)
	}

	if *workers < 1 {
		log.Fatalf("icache-train: -workers %d, want >= 1", *workers)
	}
	// Request tracing: one shared recorder and 1-in-N sampler across all
	// worker connections, so "1 in N" holds globally.
	var tracer *trace.Recorder
	var sampler *obs.Sampler
	if *traceN > 0 {
		tracer = trace.NewRecorder(1 << 18)
		sampler = obs.NewSampler(*traceN)
	}

	// One connection per worker, like PyTorch's per-worker loader processes.
	clients := make([]*rpc.Client, *workers)
	for w := range clients {
		c, err := rpc.Dial(*addr, *timeout)
		if err != nil {
			log.Fatalf("icache-train: %v", err)
		}
		defer c.Close()
		if tracer != nil {
			c.EnableObs(nil, tracer, sampler)
		}
		clients[w] = c
	}
	if err := clients[0].Ping(); err != nil {
		log.Fatalf("icache-train: server not responding: %v", err)
	}

	cfg := train.DefaultConfig(train.ResNet18, spec)
	cfg.Seed = *seed
	learner, err := train.NewLearner(cfg, train.SubSourceLCache)
	if err != nil {
		log.Fatalf("icache-train: %v", err)
	}
	rng := rand.New(rand.NewSource(*seed))

	for epoch := 0; epoch < *epochs; epoch++ {
		ep, err := train.RunWireEpoch(learner, rng, clients, epoch, *bs, *clairv)
		if err != nil {
			log.Fatalf("icache-train: epoch %d: %v", epoch, err)
		}
		if *clairv && !ep.Planned {
			log.Printf("icache-train: server rejected planned boundary; falling back to -clairvoyant=false")
			*clairv = false
		}
		st := ep.Server
		hitRatio := 0.0
		if served := st.Hits + st.Misses + st.Substitutions; served > 0 {
			hitRatio = float64(st.Hits+st.Substitutions) / float64(served)
		}
		fmt.Printf("epoch %d: %d samples, %.1f MB in %s (%.0f samples/s) | server: hits=%d misses=%d subs=%d hit-ratio=%.1f%% cold=%d hcache=%d lcache=%d pkgs=%d | %s: substituted=%.1f%% top-1=%.2f%% top-5=%.2f%%\n",
			epoch, ep.Trained, float64(ep.Bytes)/(1<<20), ep.Elapsed.Round(time.Millisecond),
			float64(ep.Trained)/ep.Elapsed.Seconds(),
			st.Hits, st.Misses, st.Substitutions, 100*hitRatio, st.DemandFetches, st.HCacheLen, st.LCacheLen, st.Packages,
			cfg.Model.Name, 100*float64(ep.Substituted)/float64(max(ep.Trained, 1)), ep.Top1, ep.Top5)
	}

	if tracer != nil {
		events := tracer.Snapshot()
		trace.PrintSpans(os.Stdout, trace.Chains(events), 3)
		if *traceTo != "" {
			f, err := os.Create(*traceTo)
			if err != nil {
				log.Fatalf("icache-train: trace dump: %v", err)
			}
			if err := tracer.WriteCSV(f); err != nil {
				log.Fatalf("icache-train: trace dump: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("icache-train: trace dump: %v", err)
			}
			fmt.Printf("traced spans dumped to %s (analyze with icache-trace, merge with the server's CSV for the full hop chain)\n", *traceTo)
		}
	}
}
