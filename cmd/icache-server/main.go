// Command icache-server runs the iCache TCP cache service: the Go server
// of the paper's §IV, serving real sample bytes with the H-cache/L-cache
// policy engine behind the rpc_loader / update_ipersample interfaces.
//
// Usage:
//
//	icache-server -addr :7820 -dataset cifar10 -cache-frac 0.2
//
// Training clients connect with internal/rpc.Client (see cmd/icache-train
// and examples/clientserver).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"icache/cmd/internal/shell"
	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/trace"
)

// splitAddrs parses a comma-separated address list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parsePeers decodes "1=host:port,2=host:port" into a peer address map.
func parsePeers(s string) (map[dkv.NodeID]string, error) {
	out := make(map[dkv.NodeID]string)
	for _, part := range splitAddrs(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=addr)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id in %q: %v", part, err)
		}
		out[dkv.NodeID(id)] = kv[1]
	}
	return out, nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7820", "listen address")
		dsName    = flag.String("dataset", "cifar10", "dataset to serve: cifar10, imagenet, imagenet-10pct")
		dsFile    = flag.String("dataset-file", "", "serve payloads from a packed dataset file (see icache-gen) instead of generating them")
		cacheFrac = flag.Float64("cache-frac", 0.2, "cache size as a fraction of the dataset")
		seed      = flag.Int64("seed", 42, "server randomness seed")
		ckptPath  = flag.String("checkpoint", "", "warm-restart checkpoint file: load at boot, save at shutdown")
		metricsAt = flag.String("metrics-addr", "", "serve a metrics endpoint on this address (e.g. :7830): Prometheus text at /metrics, /healthz, /debug/obs, /debug/timeline and /debug/journal; also arms the per-stage latency histograms")
		traceCSV  = flag.String("trace-csv", "", "dump a request-event trace (policy events + cross-node spans) to this CSV file at shutdown; also arms span recording for traced requests")
		traceMax  = flag.Int("trace-csv-max-mb", 0, "cap the shutdown trace CSV at this many MB, keeping the newest events (0 = unlimited); the previous dump is rotated to <file>.1")
		slowReq   = flag.Duration("slow-request-threshold", 0, "log GetBatch serves slower than this (0 disables; at most one line per 10s)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof on the metrics address (requires -metrics-addr)")
		nodeID    = flag.Int("node-id", -1, "distributed mode: this node's ID (requires -dir)")
		dirAddr   = flag.String("dir", "", "distributed mode: directory service address, or a comma-separated replica list for a partitioned directory (see icache-dkv)")
		peers     = flag.String("peers", "", "distributed mode: comma-separated id=addr peer list, e.g. 1=host:7820,2=host2:7820")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "distributed mode: membership lease duration the node asks the directory for (0 selects 10s); the node renews it every lease-ttl/4 and scrubs every lease-ttl/2")
		maxInfl   = flag.Int("max-inflight", 0, "admission control: max concurrently admitted requests before shedding (0 disables the cap)")
		targetQD  = flag.Duration("target-queue-delay", 0, "admission control: standing queue delay that triggers brownout/shedding, CoDel-style (0 disables the delay ladder)")
		brkThresh = flag.Int("breaker-threshold", 0, "peer circuit breakers: consecutive failures before a peer trips open (0 selects the default; negative disables breakers)")
		defDL     = flag.Duration("default-deadline", 0, "peer RPC deadline when a request carries no budget of its own (0 selects the 1s default)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("icache-server: ")

	spec, err := dataset.ByName(*dsName)
	if err != nil {
		log.Fatal(err)
	}
	if *cacheFrac <= 0 || *cacheFrac > 1 {
		log.Fatalf("-cache-frac %g outside (0,1]", *cacheFrac)
	}

	backend, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		log.Fatal(err)
	}
	cfg := icache.DefaultConfig(int64(float64(spec.TotalBytes()) * *cacheFrac))
	cacheSrv, err := icache.NewServer(backend, cfg, sampling.DefaultIIS(), *seed)
	if err != nil {
		log.Fatal(err)
	}
	var source rpc.ByteSource
	if *dsFile != "" {
		fsrc, err := storage.OpenFileSource(*dsFile, spec)
		if err != nil {
			log.Fatal(err)
		}
		defer fsrc.Close()
		source = fsrc
		log.Printf("serving payloads from %s", *dsFile)
	} else {
		dsrc, err := storage.NewDataSource(spec)
		if err != nil {
			log.Fatal(err)
		}
		source = dsrc
	}

	var tracer *trace.Recorder
	if *traceCSV != "" {
		tracer = trace.NewRecorder(1 << 20)
		cacheSrv.SetTracer(tracer)
	}

	srv := rpc.NewServer(cacheSrv, source)
	// The control-plane journal records rare decision events (gate
	// transitions, breaker trips, epoch boundaries, membership flips); it is
	// cheap enough to keep always-on. Install it before EnableDistributed so
	// per-peer breakers pick it up at creation.
	journal := obs.NewJournal(1024)
	srv.SetJournal(journal)
	srv.SetAdmission(shell.Gate(*maxInfl, *targetQD))
	// Per-stage latency histograms ride with the metrics endpoint (they are
	// what make the Prometheus view useful); cross-node span recording rides
	// with -trace-csv, sharing the policy-event ring so one CSV holds the
	// whole story. Either may be nil — EnableObs treats nil as "off".
	var obsReg *obs.Registry
	if *metricsAt != "" {
		obsReg = obs.NewRegistry()
	}
	if obsReg != nil || tracer != nil {
		srv.EnableObs(obsReg, tracer)
	}
	if *slowReq > 0 {
		srv.SetSlowRequestLog(*slowReq)
		log.Printf("slow-request log armed at %s", *slowReq)
	}
	if *ckptPath != "" {
		loaded, err := srv.LoadCheckpointFile(*ckptPath, true)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		if loaded {
			v := cacheSrv.View()
			log.Printf("warm-restarted from %s (%d H, %d L residents)", *ckptPath, v.HLen, v.LLen)
		}
	}
	if *dirAddr != "" {
		if *nodeID < 0 {
			log.Fatalf("-dir requires -node-id")
		}
		// -dir is one directory address or a comma-separated replica list
		// for a partitioned directory (see icache-dkv); the sharded client
		// serves both. Each replica's calls inherit the peer deadline/breaker
		// knobs: a hung replica costs one bounded stall, then fails over (or,
		// the last one, fails fast) until a half-open probe recovers it.
		dial := dkv.DialConfig{Timeout: 5 * time.Second, RPCTimeout: time.Second}
		if *defDL > 0 {
			dial.RPCTimeout = *defDL
		}
		if *brkThresh >= 0 {
			dial.Breaker = &overload.BreakerConfig{Threshold: *brkThresh}
		}
		dir, err := dkv.DialSharded(splitAddrs(*dirAddr), dial, dkv.ShardedConfig{FailoverTTL: *leaseTTL})
		if err != nil {
			log.Fatalf("directory: %v", err)
		}
		peerMap, err := parsePeers(*peers)
		if err != nil {
			log.Fatal(err)
		}
		srv.EnableDistributed(dkv.NodeID(*nodeID), dir, peerMap)
		srv.SetPeerConfig(rpc.PeerConfig{RPCTimeout: *defDL, BreakerThreshold: *brkThresh})
		log.Printf("distributed node %d, directory %s (%d replicas), %d peers", *nodeID, *dirAddr, len(dir.View().Replicas), len(peerMap))
		// Join under a fresh lease; a warm restart replays ownership claims
		// for every checkpoint-restored resident (claims a survivor won in
		// the meantime are denied and the local copy is dropped).
		if err := srv.StartMembership(rpc.MembershipConfig{LeaseTTL: *leaseTTL}); err != nil {
			log.Fatalf("membership: %v", err)
		}
		log.Printf("lease ttl %s, heartbeats + anti-entropy scrubbing started", *leaseTTL)
	}
	mux := http.NewServeMux()
	mux.Handle("/healthz", srv.HealthHandler())
	mux.Handle("/", srv.MetricsHandler()) // any other path serves metrics
	debug := &shell.Debug{Point: srv.TimelinePoint, Journal: journal, Exemplars: srv.Exemplars(), Pprof: *pprofOn,
		Registry: obsReg, Tracer: tracer, SlowThreshold: *slowReq}
	if at := debug.Serve(*metricsAt, mux); at != nil {
		log.Printf("metrics on http://%s/metrics (Prometheus text), health on /healthz", at)
	}
	log.Printf("dataset %s (%d samples, %d MB), cache %.0f%% (%s), listening on %s",
		spec.Name, spec.NumSamples, spec.TotalBytes()>>20, 100**cacheFrac, cacheSrv, *addr)
	err = shell.Run(func() error { return srv.ListenAndServe(*addr) }, func() {
		debug.Shutdown()
		if *ckptPath != "" {
			if err := srv.SaveCheckpointFile(*ckptPath); err != nil {
				log.Printf("checkpoint save: %v", err)
			} else {
				log.Printf("checkpoint saved to %s", *ckptPath)
			}
		}
		shell.DumpTrace(tracer, *traceCSV, *traceMax)
		srv.Close()
	})
	if err != nil {
		log.Fatal(err)
	}
}
