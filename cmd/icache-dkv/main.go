// Command icache-dkv runs the shared key-value directory service of the
// paper's §III-E: distributed cache nodes register which samples they hold
// so no sample is cached twice and misses can be served from a peer's DRAM.
//
// Usage:
//
//	icache-dkv -addr :7821
//
// Cache nodes join with `icache-server -node-id N -dir <addr> -peers ...`.
//
// The directory can be partitioned across N replicas (sharded by sample ID
// via rendezvous hashing — see internal/dkv/ring.go): start each replica
// with a distinct -replica-id and point -peers at the others, e.g.
//
//	icache-dkv -addr :7821 -replica-id 0 -peers 1=host2:7821,2=host3:7821
//
// Replicas lease-track each other, exchange epoch-numbered ring views every
// -ring-interval, and hand shards off when a peer's lease expires. Cache
// servers then list every replica in -dir (comma-separated).
//
// With -debug-addr the service also exposes an observability surface: the
// per-request latency histogram and trace-ring summary at /debug/obs, and
// (with -pprof) the net/http/pprof handlers. With -trace-csv, directory
// spans of traced cache requests are dumped at shutdown so icache-trace
// can place the directory hop in the cross-node chain.
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

	"icache/internal/dkv"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7821", "listen address")
	leaseTTL := flag.Duration("lease-ttl", dkv.DefaultLeaseTTL, "default membership lease TTL granted to nodes that register without one")
	suspect := flag.Duration("suspect-window", dkv.DefaultSuspectWindow, "how long past lease expiry a node stays routable before it is declared dead")
	debugAt := flag.String("debug-addr", "", "serve /debug/obs on this address (e.g. :7831); also arms the per-request latency histogram")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof on the debug address (requires -debug-addr)")
	traceCSV := flag.String("trace-csv", "", "dump directory-side spans of traced requests to this CSV file at shutdown; also arms span recording")
	traceMax := flag.Int("trace-csv-max-mb", 0, "cap the shutdown trace CSV at this many MB, keeping the newest events (0 = unlimited); the previous dump is rotated to <file>.1")
	replicaID := flag.Int("replica-id", 0, "this replica's ID in a partitioned directory (used with -peers)")
	peersFlag := flag.String("peers", "", "comma-separated id=addr list of the OTHER directory replicas (e.g. 1=host2:7821,2=host3:7821); enables replica mode")
	ringInterval := flag.Duration("ring-interval", time.Second, "how often replicas exchange ring views (replica mode)")
	handoffBatch := flag.Int("handoff-batch", 4096, "max directory entries dropped per shard hand-off sweep (replica mode; 0 = unbounded)")
	maxInfl := flag.Int("max-inflight", 0, "admission control: max concurrently admitted data-plane requests before shedding (0 disables the cap; liveness traffic is never gated)")
	targetQD := flag.Duration("target-queue-delay", 0, "admission control: standing queue delay that triggers brownout/shedding, CoDel-style (0 disables the delay ladder)")
	flag.Parse()

	dir := dkv.NewDirectory()
	dir.SetMembershipParams(*leaseTTL, *suspect)
	srv := dkv.NewDirServer(dir)
	// Control-plane journal: membership flips and shard hand-offs are rare
	// events, so the journal is always-on.
	journal := obs.NewJournal(1024)
	srv.SetJournal(journal)
	if *maxInfl > 0 || *targetQD > 0 {
		srv.SetAdmission(overload.NewGate(overload.GateConfig{
			MaxInflight: *maxInfl,
			TargetDelay: *targetQD,
		}))
		log.Printf("icache-dkv: admission gate armed (max-inflight=%d, target-queue-delay=%s)",
			*maxInfl, *targetQD)
	}

	ringStop := make(chan struct{})
	if *peersFlag != "" {
		peers, err := parsePeers(*peersFlag, *replicaID)
		if err != nil {
			log.Fatalf("icache-dkv: -peers: %v", err)
		}
		srv.EnableReplica(dkv.ReplicaConfig{
			Self:          dkv.ReplicaID(*replicaID),
			Peers:         peers,
			LeaseTTL:      *leaseTTL,
			SuspectWindow: *suspect,
			HandoffBatch:  *handoffBatch,
		})
		go srv.RunRingExchange(*ringInterval, ringStop)
		log.Printf("icache-dkv: replica %d of a partitioned directory (%d peers)", *replicaID, len(peers))
	}

	var tracer *trace.Recorder
	if *traceCSV != "" {
		tracer = trace.NewRecorder(1 << 18)
	}
	var reg *obs.Registry
	if *debugAt != "" {
		reg = obs.NewRegistry()
	}
	if reg != nil || tracer != nil {
		srv.EnableObs(reg, tracer)
	}

	var debugSrv *http.Server
	var tlStop chan struct{}
	if *debugAt != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/obs", srv.DebugObsHandler())
		// Directory-side timeline: ownership and membership counters once a
		// second, ten minutes of lookback. ownership_frames over the nodes'
		// admissions is their directory round trips per admitted sample.
		timeline := obs.NewTimeline(600, func() map[string]float64 {
			claims, denied := dir.Stats()
			frames, ops := srv.OwnershipStats()
			ms := dir.Membership()
			return map[string]float64{
				"owned":             float64(dir.Len()),
				"claims":            float64(claims),
				"claims_denied":     float64(denied),
				"ownership_frames":  float64(frames),
				"ownership_ops":     float64(ops),
				"registers":         float64(ms.Registers),
				"heartbeats":        float64(ms.Heartbeats),
				"heartbeat_rejects": float64(ms.HeartbeatRejects),
				"suspects":          float64(ms.Suspects),
				"deaths":            float64(ms.Deaths),
				"revivals":          float64(ms.Revivals),
				"reclaims":          float64(ms.Reclaims),
				"purged":            float64(ms.Purged),
			}
		})
		tlStop = make(chan struct{})
		go timeline.Run(time.Second, tlStop)
		mux.Handle("/debug/timeline", timeline.Handler())
		mux.Handle("/debug/journal", journal.Handler(nil))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		debugSrv = &http.Server{Addr: *debugAt, Handler: mux}
		go func() {
			log.Printf("icache-dkv: debug on http://%s/debug/obs", *debugAt)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("icache-dkv: debug: %v", err)
			}
		}()
	} else if *pprofOn {
		log.Printf("icache-dkv: -pprof ignored (requires -debug-addr)")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("icache-dkv: shutting down")
		if tlStop != nil {
			close(tlStop)
		}
		if debugSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := debugSrv.Shutdown(ctx); err != nil {
				log.Printf("icache-dkv: debug shutdown: %v", err)
			}
			cancel()
		}
		if tracer != nil {
			if _, err := os.Stat(*traceCSV); err == nil {
				if err := os.Rename(*traceCSV, *traceCSV+".1"); err != nil {
					log.Printf("icache-dkv: trace rotate: %v", err)
				}
			}
			if f, err := os.Create(*traceCSV); err != nil {
				log.Printf("icache-dkv: trace dump: %v", err)
			} else {
				cut, err := tracer.WriteCSVLimited(f, int64(*traceMax)<<20)
				if err != nil {
					log.Printf("icache-dkv: trace dump: %v", err)
				}
				f.Close()
				log.Printf("icache-dkv: trace (%d events retained, %d total, %d cut by size cap) dumped to %s",
					tracer.Len(), tracer.Total(), cut, *traceCSV)
			}
		}
		close(ringStop)
		srv.CloseReplica()
		srv.Close()
	}()
	log.Printf("icache-dkv: directory service listening on %s", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Printf("icache-dkv: %v", err)
	}
}

// parsePeers parses the -peers flag's comma-separated id=addr list.
func parsePeers(s string, self int) (map[dkv.ReplicaID]string, error) {
	peers := make(map[dkv.ReplicaID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("entry %q is not id=addr", part)
		}
		id, err := strconv.Atoi(part[:eq])
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad replica id: %v", part, err)
		}
		addr := part[eq+1:]
		if addr == "" {
			return nil, fmt.Errorf("entry %q: empty address", part)
		}
		if id == self {
			return nil, fmt.Errorf("entry %q names this replica (-replica-id %d)", part, self)
		}
		if prev, dup := peers[dkv.ReplicaID(id)]; dup {
			return nil, fmt.Errorf("replica %d listed twice (%s, %s)", id, prev, addr)
		}
		peers[dkv.ReplicaID(id)] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("no peers in %q", s)
	}
	return peers, nil
}
