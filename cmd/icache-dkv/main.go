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
// via rendezvous hashing — see internal/dkv/ring.go): start N plain
// icache-dkv processes and list them all, in one order, in every cache
// server's -dir (comma-separated). Replicas know nothing of each other: the
// cache servers' sharded clients route and fail over, and each node's scrub
// repairs the entries a failover stranded once routing reaches them again.
//
// With -debug-addr the service serves the daemons' shared debug surface:
// the per-request latency and trace-ring summary at /debug/obs, ownership
// and membership counters at /debug/timeline, membership flips at
// /debug/journal, and (with -pprof) net/http/pprof. With -trace-csv,
// directory spans of traced cache requests are dumped at shutdown so
// icache-trace can place the directory hop in the cross-node chain.
package main

import (
	"flag"
	"log"
	"net/http"

	"icache/cmd/internal/shell"
	"icache/internal/dkv"
	"icache/internal/obs"
	"icache/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7821", "listen address")
	leaseTTL := flag.Duration("lease-ttl", dkv.DefaultLeaseTTL, "default membership lease TTL granted to nodes that register without one")
	suspect := flag.Duration("suspect-window", dkv.DefaultSuspectWindow, "how long past lease expiry a node stays routable before it is declared dead")
	debugAt := flag.String("debug-addr", "", "serve /debug/obs, /debug/timeline and /debug/journal on this address (e.g. :7831); also arms the per-request latency histogram")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof on the debug address (requires -debug-addr)")
	traceCSV := flag.String("trace-csv", "", "dump directory-side spans of traced requests to this CSV file at shutdown; also arms span recording")
	traceMax := flag.Int("trace-csv-max-mb", 0, "cap the shutdown trace CSV at this many MB, keeping the newest events (0 = unlimited); the previous dump is rotated to <file>.1")
	maxInfl := flag.Int("max-inflight", 0, "admission control: max concurrently admitted data-plane requests before shedding (0 disables the cap; liveness traffic is never gated)")
	targetQD := flag.Duration("target-queue-delay", 0, "admission control: standing queue delay that triggers brownout/shedding, CoDel-style (0 disables the delay ladder)")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("icache-dkv: ")

	dir := dkv.NewDirectory()
	dir.SetMembershipParams(*leaseTTL, *suspect)
	srv := dkv.NewDirServer(dir)
	// Control-plane journal: membership flips are rare events, so the journal
	// is always-on.
	journal := obs.NewJournal(1024)
	dir.SetJournal(journal)
	srv.SetAdmission(shell.Gate(*maxInfl, *targetQD))

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

	// Directory-side timeline: ownership and membership counters.
	// ownership_frames over the nodes' admissions is their directory round
	// trips per admitted sample.
	point := func() map[string]float64 {
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
	}
	debug := &shell.Debug{Point: point, Journal: journal, Pprof: *pprofOn, Registry: reg, Tracer: tracer}
	debug.Serve(*debugAt, http.NewServeMux())
	log.Printf("directory service listening on %s", *addr)
	shell.Run(func() error { return srv.ListenAndServe(*addr) }, func() {
		debug.Shutdown()
		shell.DumpTrace(tracer, *traceCSV, *traceMax)
		srv.Close()
	})
}
