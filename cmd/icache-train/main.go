// Command icache-train drives a live icache-server the way the paper's
// PyTorch client does: per epoch it selects samples with I/O-oriented
// importance sampling, fetches them in mini-batches over the wire, trains
// them through train.Learner, and pushes the fresh H-list to the server. It
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
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/trace"
	"icache/internal/train"
	"icache/internal/transport"
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
	client := clients[0]
	if err := client.Ping(); err != nil {
		log.Fatalf("icache-train: server not responding: %v", err)
	}

	cfg := train.DefaultConfig(train.ResNet18, spec)
	cfg.Seed = *seed
	learner, err := train.NewLearner(cfg, train.SubSourceLCache)
	if err != nil {
		log.Fatalf("icache-train: %v", err)
	}
	rng := rand.New(rand.NewSource(*seed))

	// The server's counters are cumulative since it started; each epoch's
	// line reports the growth since the previous boundary.
	prev, err := client.Stats()
	if err != nil {
		log.Fatalf("icache-train: stats: %v", err)
	}
	for epoch := 0; epoch < *epochs; epoch++ {
		learner.BeginEpoch(epoch)
		sched, hlist := sampling.IISSchedule(learner.Tracker(), sampling.DefaultIIS(), rng)
		if err := client.UpdateImportance(hlist.Items); err != nil {
			log.Fatalf("icache-train: push H-list: %v", err)
		}
		if *clairv {
			// Planned boundary: the sampler drew the whole epoch's access
			// order up front, so ship it with the boundary and let the
			// server pre-place the misses before the batches arrive. An
			// older or non-planning server rejects the opcode with an
			// application error; fall back to the plain boundary so the
			// flag is safe against any server.
			err := client.BeginEpochPlan(epoch, sched.Fetch)
			var se *transport.ServerError
			if errors.As(err, &se) {
				log.Printf("icache-train: server rejected planned boundary (%v); falling back to -clairvoyant=false", err)
				*clairv = false
				err = client.BeginEpoch(epoch)
			}
			if err != nil {
				log.Fatalf("icache-train: begin epoch: %v", err)
			}
		} else if err := client.BeginEpoch(epoch); err != nil {
			log.Fatalf("icache-train: begin epoch: %v", err)
		}

		start := time.Now()
		batches := sched.Batches(*bs)
		// Workers fetch batches concurrently; results come back in order so
		// samples are trained in schedule order, like a real loader queue.
		type result struct {
			samples []rpc.Sample
			err     error
		}
		results := make([]chan result, len(batches))
		for i := range results {
			results[i] = make(chan result, 1)
		}
		next := make(chan int)
		go func() {
			for i := range batches {
				next <- i
			}
			close(next)
		}()
		for w := 0; w < *workers; w++ {
			go func(c *rpc.Client) {
				for i := range next {
					samples, err := c.GetBatch(batches[i])
					results[i] <- result{samples: samples, err: err}
				}
			}(clients[w])
		}
		var bytes int64
		for i := range batches {
			r := <-results[i]
			if r.err != nil {
				log.Fatalf("icache-train: fetch: %v", r.err)
			}
			for k, s := range r.samples {
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					log.Fatalf("icache-train: corrupt sample: %v", err)
				}
				bytes += int64(len(s.Payload))
				learner.Train(batches[i][k], s.ID, true)
			}
		}
		elapsed := time.Since(start)
		trained, subs := learner.Trained(), learner.Substitutions()
		top1, top5 := learner.EndEpoch(sched.Fetch, 0)
		st, err := client.Stats()
		if err != nil {
			log.Fatalf("icache-train: stats: %v", err)
		}
		hits, misses, srvSubs := st.Hits-prev.Hits, st.Misses-prev.Misses, st.Substitutions-prev.Substitutions
		prev = st
		hitRatio := 0.0
		if served := hits + misses + srvSubs; served > 0 {
			hitRatio = float64(hits+srvSubs) / float64(served)
		}
		fmt.Printf("epoch %d: %d samples, %.1f MB in %s (%.0f samples/s) | server: hits=%d misses=%d subs=%d hit-ratio=%.1f%% hcache=%d lcache=%d pkgs=%d | %s: substituted=%.1f%% top-1=%.2f%% top-5=%.2f%%\n",
			epoch, trained, float64(bytes)/(1<<20), elapsed.Round(time.Millisecond),
			float64(trained)/elapsed.Seconds(),
			hits, misses, srvSubs, 100*hitRatio, st.HCacheLen, st.LCacheLen, st.Packages,
			cfg.Model.Name, 100*float64(subs)/float64(max(trained, 1)), top1, top5)
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
			f.Close()
			fmt.Printf("traced spans dumped to %s (analyze with icache-trace, merge with the server's CSV for the full hop chain)\n", *traceTo)
		}
	}
}
