// Package shell is the operator shell the daemons under cmd/ share: the
// admission gate built from -max-inflight and -target-queue-delay, the debug
// HTTP surface (/debug/timeline, /debug/journal, /debug/obs, and
// net/http/pprof under -pprof) with its graceful shutdown, the serving loop
// whose signal starts a daemon's own shutdown steps, and the logged trace
// dump. Each daemon keeps its timeline point, its checkpoint and its order
// of shutdown steps. The package lives under cmd/ because net/http/pprof's
// init registers on http.DefaultServeMux: no server library or benchmark
// may import it.
package shell

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/trace"
)

// Gate is the admission gate -max-inflight and -target-queue-delay
// describe, or nil (admit everything) when both are zero.
func Gate(maxInflight int, targetDelay time.Duration) *overload.Gate {
	if maxInflight <= 0 && targetDelay <= 0 {
		return nil
	}
	log.Printf("admission gate armed (max-inflight=%d, target-queue-delay=%s)", maxInflight, targetDelay)
	return overload.NewGate(overload.GateConfig{MaxInflight: maxInflight, TargetDelay: targetDelay})
}

// Debug is a daemon's debug HTTP surface.
type Debug struct {
	// Point is sampled into /debug/timeline once a second, with ten minutes
	// of lookback: enough for icache-top's rate windows and for a whole
	// fig-13 run, at ~600 small points of memory.
	Point     func() map[string]float64
	Journal   *obs.Journal   // served at /debug/journal
	Exemplars *obs.Exemplars // the journal document's latency exemplars (nil: none)
	Pprof     bool           // mount net/http/pprof under /debug/pprof/

	// /debug/obs summarises the stage histograms of Registry, the trace
	// ring of Tracer and the slow-request threshold; a nil Registry or
	// Tracer, or a zero threshold, reads as disabled.
	Registry      *obs.Registry
	Tracer        *trace.Recorder
	SlowThreshold time.Duration

	srv  *http.Server
	stop chan struct{}
	wg   sync.WaitGroup
}

// Serve mounts the debug routes on mux beside the daemon's own, starts the
// timeline, and serves mux on addr until Shutdown. It returns the address it
// listens on, or nil when addr is empty (the daemon has no debug surface)
// or cannot be bound, which is logged.
func (d *Debug) Serve(addr string, mux *http.ServeMux) net.Addr {
	if addr == "" {
		if d.Pprof {
			log.Printf("-pprof ignored (no debug address)")
		}
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("debug surface: %v", err)
		return nil
	}
	timeline := obs.NewTimeline(600, d.Point)
	mux.Handle("/debug/timeline", timeline.Handler())
	mux.Handle("/debug/journal", d.Journal.Handler(d.Exemplars))
	mux.HandleFunc("/debug/obs", d.writeObs)
	if d.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	d.srv, d.stop = &http.Server{Handler: mux}, make(chan struct{})
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		timeline.Run(time.Second, d.stop)
	}()
	go func() {
		defer d.wg.Done()
		if err := d.srv.Serve(ln); err != http.ErrServerClosed {
			log.Printf("debug surface: %v", err)
		}
	}()
	log.Printf("debug surface on http://%s: /debug/timeline, /debug/journal, /debug/obs (pprof %t)", ln.Addr(), d.Pprof)
	return ln.Addr()
}

// writeObs renders /debug/obs: the per-stage latency table (count,
// p50/p95/p99, max), the trace ring's state and the slow-request threshold.
func (d *Debug) writeObs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if snaps := d.Registry.Snapshot(); len(snaps) == 0 {
		fmt.Fprintln(w, "stage histograms: disabled")
	} else {
		fmt.Fprintf(w, "%-22s %10s %12s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99", "max")
		for _, ns := range snaps {
			fmt.Fprintf(w, "%-22s %10d %12s %12s %12s %12s\n",
				ns.Name, ns.Snap.Count, ns.Snap.P50(), ns.Snap.P95(), ns.Snap.P99(), ns.Snap.Max())
		}
	}
	if d.Tracer == nil {
		fmt.Fprintln(w, "trace ring: disabled")
	} else {
		fmt.Fprintf(w, "trace ring: %d retained / %d total\n", d.Tracer.Len(), d.Tracer.Total())
	}
	if d.SlowThreshold > 0 {
		fmt.Fprintf(w, "slow-request threshold: %s\n", d.SlowThreshold)
	} else {
		fmt.Fprintln(w, "slow-request log: disabled")
	}
}

// Shutdown stops the timeline and shuts the HTTP server down gracefully:
// requests in flight get five seconds to finish instead of being cut
// mid-response. It returns once both have stopped; on a Debug that never
// served it does nothing.
func (d *Debug) Shutdown() {
	if d.srv == nil {
		return
	}
	close(d.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		log.Printf("debug surface shutdown: %v", err)
	}
	d.wg.Wait()
}

// Run serves until serve returns and runs shutdown on the first SIGINT or
// SIGTERM, which must end serve (a daemon's shutdown closes its server last).
// It returns only once shutdown has finished, with serve's error: nil for the
// net.ErrClosed a shutdown makes serve return (the clean stop), the error
// itself otherwise, a listener closed with no signal included, so the daemon
// can exit non-zero.
func Run(serve func() error, shutdown func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	stopped := false
	go func() {
		defer close(done)
		if _, ok := <-sig; ok {
			log.Printf("shutting down")
			shutdown()
			stopped = true
		}
	}()
	err := serve()
	signal.Stop(sig)
	close(sig) // no signal is delivered after Stop; this ends an idle watcher
	<-done
	if stopped && errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// DumpTrace dumps tracer to path (trace.Recorder.DumpFile) under a cap of
// maxMB megabytes (0: none) and logs the outcome. A nil tracer dumps
// nothing.
func DumpTrace(tracer *trace.Recorder, path string, maxMB int) {
	if tracer == nil {
		return
	}
	cut, err := tracer.DumpFile(path, int64(maxMB)<<20)
	if err != nil {
		log.Printf("trace dump to %s failed: %v", path, err)
		return
	}
	log.Printf("trace (%d events retained, %d total, %d cut by size cap) dumped to %s",
		tracer.Len(), tracer.Total(), cut, path)
}
