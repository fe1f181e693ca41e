// Command icache-loadgen drives an iCache server with open-loop,
// coordinated-omission-safe load and prints a JSON report: achieved
// samples/sec plus latency percentiles measured from each request's
// scheduled start.
//
// Typical use against a running server:
//
//	icache-loadgen -addr 127.0.0.1:9000 -keys 4096 -rate 200000 \
//	    -duration 30s -mix zipf
//
// -rate 0 removes the schedule and probes saturation. -smoke needs no
// server: it boots an in-process serving stack over loopback, warms a hot
// set, and runs a short saturation burst — the CI-facing end-to-end check
// wired into `make loadgen-smoke`.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/loadgen"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server address (host:port); required unless -smoke")
		conns    = flag.Int("conns", 8, "client connections")
		batch    = flag.Int("batch", 16, "samples per GetBatch request")
		rate     = flag.Float64("rate", 0, "offered samples/sec across all connections (0 = saturation)")
		duration = flag.Duration("duration", 10*time.Second, "measured run length")
		maxReqs  = flag.Int64("max-requests", 0, "stop after this many requests (0 = duration only)")
		mix      = flag.String("mix", "zipf", "key mix: uniform | zipf | diurnal")
		zipfS    = flag.Float64("zipf-s", 1.2, "zipf skew exponent (> 1)")
		keys     = flag.Int("keys", 0, "keyspace size: ids drawn from [0, keys); required unless -smoke")
		seed     = flag.Int64("seed", 1, "mix RNG seed")
		warmup   = flag.Duration("warmup", 0, "unrecorded warmup before the measured run")
		deadline = flag.Duration("deadline", 0, "per-request deadline measured from the scheduled start; responses past it count as expired, not goodput (0 = none)")
		smoke    = flag.Bool("smoke", false, "self-contained smoke run against an in-process server")

		epochSamples = flag.Int("epoch-samples", 0, "epoch-boundary mode: samples selected (and accessed once) per epoch (0 = classic stream mode)")
		epochs       = flag.Int("epochs", 5, "epoch-boundary mode: number of epochs")
		clairvoyant  = flag.Bool("clairvoyant", false, "epoch-boundary mode: push each epoch's schedule ahead of its accesses (BeginEpochPlan)")
		prefSmoke    = flag.Bool("prefetch-smoke", false, "self-contained clairvoyant epoch-mode smoke against an in-process planning server")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Addr:         *addr,
		Conns:        *conns,
		Batch:        *batch,
		Rate:         *rate,
		Duration:     *duration,
		MaxRequests:  *maxReqs,
		Mix:          *mix,
		ZipfS:        *zipfS,
		Keys:         *keys,
		Seed:         *seed,
		Warmup:       *warmup,
		Deadline:     *deadline,
		EpochSamples: *epochSamples,
		Epochs:       *epochs,
		Clairvoyant:  *clairvoyant,
	}

	if *prefSmoke {
		runPrefetchSmoke(cfg)
		return
	}

	if *smoke {
		srv, smokeAddr, err := startSmokeServer()
		if err != nil {
			fmt.Fprintf(os.Stderr, "icache-loadgen: smoke server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		cfg.Addr = smokeAddr
		cfg.Keys = smokeKeys
		cfg.Conns = 4
		cfg.Batch = 8
		cfg.Rate = 0
		cfg.Duration = 2 * time.Second
		cfg.Warmup = 200 * time.Millisecond
		cfg.Mix = "zipf"
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icache-loadgen: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(rep.JSON())
	if *smoke {
		if rep.Errors > 0 || rep.Samples == 0 {
			fmt.Fprintf(os.Stderr, "icache-loadgen: smoke failed: %d errors, %d samples\n",
				rep.Errors, rep.Samples)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "icache-loadgen: smoke ok")
	}
}

// runPrefetchSmoke is the CI-facing end-to-end check of the clairvoyant
// plan (`make prefetch-smoke`): it boots an in-process serving stack,
// runs the epoch-boundary workload with the schedule pushed ahead of its
// accesses, and asserts that later epochs run nearly cold-miss-free while
// the prefetch-outcome ledger stays exactly conserved.
func runPrefetchSmoke(cfg loadgen.Config) {
	srv, addr, err := startPrefetchSmokeServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "icache-loadgen: prefetch-smoke server: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	cfg.Addr = addr
	cfg.Keys = smokeKeys
	cfg.Conns = 4
	cfg.Batch = 8
	cfg.Rate = 20000
	cfg.EpochSamples = 192
	cfg.Epochs = 5
	cfg.Clairvoyant = true
	cfg.Seed = 1

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icache-loadgen: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(rep.JSON())

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "icache-loadgen: prefetch-smoke failed: "+format+"\n", args...)
		os.Exit(1)
	}
	if rep.Errors > 0 || rep.Samples == 0 {
		fail("%d errors, %d samples", rep.Errors, rep.Samples)
	}
	if len(rep.EpochMisses) != cfg.Epochs {
		fail("got %d epoch miss counts, want %d", len(rep.EpochMisses), cfg.Epochs)
	}
	first, last := rep.EpochMisses[0], rep.EpochMisses[len(rep.EpochMisses)-1]
	if first == 0 {
		fail("first epoch saw no cold misses — the baseline epoch never hit the backend")
	}
	if last > first/5 {
		fail("last epoch cold misses %d > first/5 (%d/5) — the plan is not pre-placing", last, first)
	}
	d := srv.DecisionStats()
	if got := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; got != d.PrefetchIssued {
		fail("prefetch ledger unbalanced: in_time %d + late %d + wasted %d + dropped %d = %d != issued %d",
			d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, got, d.PrefetchIssued)
	}
	fmt.Fprintf(os.Stderr, "icache-loadgen: prefetch-smoke ok (cold misses %v, in-time %d/%d)\n",
		rep.EpochMisses, d.PrefetchInTime, d.PrefetchIssued)
}

// startPrefetchSmokeServer boots a loopback serving stack tuned so the
// clairvoyant plan is the only prefetch source: all-H policy (L-cache off),
// H capacity comfortably above the per-epoch selection, the default pool.
func startPrefetchSmokeServer() (*rpc.Server, string, error) {
	spec := dataset.Spec{Name: "prefetch-smoke", NumSamples: smokeKeys, MeanSampleBytes: 4096, Seed: 7}
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		return nil, "", err
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() * 3 / 4)
	cfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		return nil, "", err
	}
	src, err := storage.NewDataSource(spec)
	if err != nil {
		return nil, "", err
	}
	srv := rpc.NewServer(cacheSrv, src)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// smokeKeys is the smoke keyspace — small enough that the zipf head is
// resident after warmup, so the run exercises the hit path.
const smokeKeys = 512

// startSmokeServer boots a loopback serving stack over a synthetic
// dataset for the self-contained smoke run.
func startSmokeServer() (*rpc.Server, string, error) {
	spec := dataset.Spec{Name: "loadgen-smoke", NumSamples: smokeKeys, MeanSampleBytes: 4096, Seed: 7}
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		return nil, "", err
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() / 2)
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		return nil, "", err
	}
	src, err := storage.NewDataSource(spec)
	if err != nil {
		return nil, "", err
	}
	srv := rpc.NewServer(cacheSrv, src)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
