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
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

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

// parsePeers decodes "1=host:port,2=host:port" into a peer address map.
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

func parsePeers(s string) (map[dkv.NodeID]string, error) {
	out := make(map[dkv.NodeID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
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

func datasetByName(name string) (dataset.Spec, error) {
	switch name {
	case "cifar10":
		return dataset.CIFAR10(), nil
	case "imagenet":
		return dataset.ImageNet(), nil
	case "imagenet-10pct":
		return dataset.ImageNetScaled(), nil
	default:
		return dataset.Spec{}, fmt.Errorf("unknown dataset %q (cifar10, imagenet, imagenet-10pct)", name)
	}
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7820", "listen address")
		dsName    = flag.String("dataset", "cifar10", "dataset to serve: cifar10, imagenet, imagenet-10pct")
		dsFile    = flag.String("dataset-file", "", "serve payloads from a packed dataset file (see icache-gen) instead of generating them")
		cacheFrac = flag.Float64("cache-frac", 0.2, "cache size as a fraction of the dataset")
		hShare    = flag.Float64("h-share", 0.9, "fraction of the cache given to the H-region")
		noLCache  = flag.Bool("no-lcache", false, "disable the L-cache (the +HC ablation configuration)")
		seed      = flag.Int64("seed", 42, "server randomness seed")
		ckptPath  = flag.String("checkpoint", "", "warm-restart checkpoint file: load at boot, save at shutdown")
		metricsAt = flag.String("metrics-addr", "", "serve a metrics endpoint on this address (e.g. :7830): Prometheus text at /metrics; also arms the per-stage latency histograms")
		traceCSV  = flag.String("trace-csv", "", "dump a request-event trace (policy events + cross-node spans) to this CSV file at shutdown; also arms span recording for traced requests")
		traceMax  = flag.Int("trace-csv-max-mb", 0, "cap the shutdown trace CSV at this many MB, keeping the newest events (0 = unlimited); the previous dump is rotated to <file>.1")
		slowReq   = flag.Duration("slow-request-threshold", 0, "log GetBatch serves slower than this (0 disables; at most one line per 10s)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof and /debug/obs on the metrics address (requires -metrics-addr)")
		nodeID    = flag.Int("node-id", -1, "distributed mode: this node's ID (requires -dir)")
		dirAddr   = flag.String("dir", "", "distributed mode: directory service address, or a comma-separated replica list for a partitioned directory (see icache-dkv)")
		peers     = flag.String("peers", "", "distributed mode: comma-separated id=addr peer list, e.g. 1=host:7820,2=host2:7820")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "distributed mode: membership lease duration in the directory")
		beatEvery = flag.Duration("heartbeat-interval", 0, "distributed mode: lease renewal period (default lease-ttl/4)")
		scrubEvry = flag.Duration("scrub-interval", 0, "distributed mode: anti-entropy scrub period (default lease-ttl/2)")
		peerBatch = flag.Int("peer-batch", 256, "distributed mode: max remote misses per batched peer read RPC (<= 0 selects 256)")
		peerInfl  = flag.Int("peer-inflight", 0, "distributed mode: max in-flight frames per multiplexed peer connection (0 selects the client default)")
		maxInfl   = flag.Int("max-inflight", 0, "admission control: max concurrently admitted requests before shedding (0 disables the cap)")
		targetQD  = flag.Duration("target-queue-delay", 0, "admission control: standing queue delay that triggers brownout/shedding, CoDel-style (0 disables the delay ladder)")
		brkThresh = flag.Int("breaker-threshold", 0, "peer circuit breakers: consecutive failures before a peer trips open (0 selects the default; negative disables breakers)")
		defDL     = flag.Duration("default-deadline", 0, "peer RPC deadline when a request carries no budget of its own (0 selects the 1s default)")
	)
	flag.Parse()

	spec, err := datasetByName(*dsName)
	if err != nil {
		log.Fatalf("icache-server: %v", err)
	}
	if *cacheFrac <= 0 || *cacheFrac > 1 {
		log.Fatalf("icache-server: -cache-frac %g outside (0,1]", *cacheFrac)
	}

	backend, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		log.Fatalf("icache-server: %v", err)
	}
	cfg := icache.DefaultConfig(int64(float64(spec.TotalBytes()) * *cacheFrac))
	cfg.HShare = *hShare
	cfg.EnableLCache = !*noLCache
	cacheSrv, err := icache.NewServer(backend, cfg, sampling.DefaultIIS(), *seed)
	if err != nil {
		log.Fatalf("icache-server: %v", err)
	}
	var source rpc.ByteSource
	if *dsFile != "" {
		fsrc, err := storage.OpenFileSource(*dsFile, spec)
		if err != nil {
			log.Fatalf("icache-server: %v", err)
		}
		defer fsrc.Close()
		source = fsrc
		log.Printf("icache-server: serving payloads from %s", *dsFile)
	} else {
		dsrc, err := storage.NewDataSource(spec)
		if err != nil {
			log.Fatalf("icache-server: %v", err)
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
	if *maxInfl > 0 || *targetQD > 0 {
		srv.SetAdmission(overload.NewGate(overload.GateConfig{
			MaxInflight: *maxInfl,
			TargetDelay: *targetQD,
		}))
		log.Printf("icache-server: admission gate armed (max-inflight=%d, target-queue-delay=%s)",
			*maxInfl, *targetQD)
	}
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
		srv.SetSlowRequestLog(*slowReq, 10*time.Second)
		log.Printf("icache-server: slow-request log armed at %s", *slowReq)
	}
	if *ckptPath != "" {
		loaded, err := srv.LoadCheckpointFile(*ckptPath, true)
		if err != nil {
			log.Fatalf("icache-server: checkpoint: %v", err)
		}
		if loaded {
			v := cacheSrv.View()
			log.Printf("icache-server: warm-restarted from %s (%d H, %d L residents)", *ckptPath, v.HLen, v.LLen)
		}
	}
	if *dirAddr != "" {
		if *nodeID < 0 {
			log.Fatalf("icache-server: -dir requires -node-id")
		}
		// -dir accepts a comma-separated replica list for a partitioned
		// directory (see icache-dkv -peers); a single address keeps the
		// one-directory client. Either way directory calls inherit the peer
		// deadline/breaker knobs, per dialled service: a hung directory (or
		// replica) costs one bounded stall, then fails fast to local-only
		// operation (or fails over) until a half-open probe recovers it.
		dial := dkv.DialConfig{Timeout: 5 * time.Second, RPCTimeout: time.Second}
		if *defDL > 0 {
			dial.RPCTimeout = *defDL
		}
		if *brkThresh >= 0 {
			dial.Breaker = &overload.BreakerConfig{Threshold: *brkThresh}
		}
		var dirSvc dkv.Service
		if dirAddrs := splitAddrs(*dirAddr); len(dirAddrs) > 1 {
			sharded, err := dkv.DialSharded(dirAddrs, dial, dkv.ShardedConfig{FailoverTTL: *leaseTTL})
			if err != nil {
				log.Fatalf("icache-server: directory: %v", err)
			}
			dirSvc = sharded
			log.Printf("icache-server: sharded directory across %d replicas", len(dirAddrs))
		} else {
			dirClient, err := dkv.DialDirConfigured(*dirAddr, dial)
			if err != nil {
				log.Fatalf("icache-server: directory: %v", err)
			}
			dirSvc = dirClient
		}
		peerMap, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("icache-server: %v", err)
		}
		srv.EnableDistributed(dkv.NodeID(*nodeID), dirSvc, peerMap)
		srv.SetPeerConfig(rpc.PeerConfig{
			Batch:            *peerBatch,
			Inflight:         *peerInfl,
			RPCTimeout:       *defDL,
			BreakerThreshold: *brkThresh,
		})
		log.Printf("icache-server: distributed node %d, directory %s, %d peers", *nodeID, *dirAddr, len(peerMap))
		// Join under a fresh lease; a warm restart replays ownership claims
		// for every checkpoint-restored resident (claims a survivor won in
		// the meantime are denied and the local copy is dropped).
		if err := srv.StartMembership(rpc.MembershipConfig{
			LeaseTTL:          *leaseTTL,
			HeartbeatInterval: *beatEvery,
			ScrubInterval:     *scrubEvry,
		}); err != nil {
			log.Fatalf("icache-server: membership: %v", err)
		}
		log.Printf("icache-server: lease ttl %s, heartbeats + anti-entropy scrubbing started", *leaseTTL)
	}
	// The metrics endpoint gets a real http.Server so shutdown is graceful:
	// in-flight scrapes finish (bounded by a timeout) instead of being cut
	// mid-response when the process exits.
	var metricsSrv *http.Server
	var tlStop chan struct{}
	if *metricsAt != "" {
		mux := http.NewServeMux()
		mux.Handle("/healthz", srv.HealthHandler())
		// One snapshot per second for ten minutes of lookback: enough for
		// icache-top's rate windows and for eyeballing a whole fig-13 run,
		// at ~600 small points of memory.
		timeline := obs.NewTimeline(600, srv.TimelinePoint)
		tlStop = make(chan struct{})
		go timeline.Run(time.Second, tlStop)
		mux.Handle("/debug/timeline", timeline.Handler())
		mux.Handle("/debug/journal", journal.Handler(srv.Exemplars()))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/debug/obs", srv.DebugObsHandler())
		}
		mux.Handle("/", srv.MetricsHandler()) // any other path serves metrics
		metricsSrv = &http.Server{Addr: *metricsAt, Handler: mux}
		go func() {
			log.Printf("icache-server: metrics on http://%s/metrics (Prometheus text), health on /healthz", *metricsAt)
			if *pprofOn {
				log.Printf("icache-server: pprof on http://%s/debug/pprof/, stage summary on /debug/obs", *metricsAt)
			}
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("icache-server: metrics: %v", err)
			}
		}()
	} else if *pprofOn {
		log.Printf("icache-server: -pprof ignored (requires -metrics-addr)")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("icache-server: shutting down")
		if tlStop != nil {
			close(tlStop)
		}
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := metricsSrv.Shutdown(ctx); err != nil {
				log.Printf("icache-server: metrics shutdown: %v", err)
			}
			cancel()
		}
		if *ckptPath != "" {
			if err := srv.SaveCheckpointFile(*ckptPath); err != nil {
				log.Printf("icache-server: checkpoint save: %v", err)
			} else {
				log.Printf("icache-server: checkpoint saved to %s", *ckptPath)
			}
		}
		if tracer != nil {
			// Rotate the previous dump out of the way so two consecutive
			// runs never overwrite each other's evidence.
			if _, err := os.Stat(*traceCSV); err == nil {
				if err := os.Rename(*traceCSV, *traceCSV+".1"); err != nil {
					log.Printf("icache-server: trace rotate: %v", err)
				}
			}
			if f, err := os.Create(*traceCSV); err != nil {
				log.Printf("icache-server: trace dump: %v", err)
			} else {
				cut, err := tracer.WriteCSVLimited(f, int64(*traceMax)<<20)
				if err != nil {
					log.Printf("icache-server: trace dump: %v", err)
				}
				f.Close()
				log.Printf("icache-server: trace (%d events retained, %d total, %d cut by size cap) dumped to %s",
					tracer.Len(), tracer.Total(), cut, *traceCSV)
			}
		}
		srv.Close()
	}()

	log.Printf("icache-server: dataset %s (%d samples, %d MB), cache %.0f%% (%s), listening on %s",
		spec.Name, spec.NumSamples, spec.TotalBytes()>>20, 100**cacheFrac, cacheSrv, *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Printf("icache-server: %v", err)
	}
}
