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
	)
	flag.Parse()

	cfg := loadgen.Config{
		Addr:        *addr,
		Conns:       *conns,
		Batch:       *batch,
		Rate:        *rate,
		Duration:    *duration,
		MaxRequests: *maxReqs,
		Mix:         *mix,
		ZipfS:       *zipfS,
		Keys:        *keys,
		Seed:        *seed,
		Warmup:      *warmup,
		Deadline:    *deadline,
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
