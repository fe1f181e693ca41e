package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/metrics"
	"icache/internal/obs"
)

// This file is the driver of the node lifecycle: a distributed
// server registers itself in the shared directory under a TTL lease, renews
// it on a heartbeat ticker, runs a bounded anti-entropy scrub on a second
// ticker, and replays ownership claims for its restored residents after a
// crash/rejoin. What those steps do is dkv/lifecycle.go; this loop is the
// only thing that fires them (under test, in a virtual-clock bubble, where
// its tickers run on the bubble's clock).
//
// Locking: the steps take policyMu only inside the resident view below, for
// short snapshots and drops; every directory round trip happens with no
// server lock held, per the contract in peer.go. Counters live behind
// distState's dedicated memMu (leaf lock, never nests), taken once a step
// has returned.

// MembershipConfig parameterizes the lifecycle loop. The loop's periods are
// derived from LeaseTTL, so a healthy node renews several times per TTL:
// it heartbeats every LeaseTTL/4 and sweeps every LeaseTTL/2.
type MembershipConfig struct {
	// LeaseTTL is this node's lease duration in the directory. Zero selects
	// dkv.DefaultLeaseTTL, which the node sends and paces itself on.
	LeaseTTL time.Duration
}

// StartMembership registers the node in the directory and starts the
// background lifecycle loop (heartbeats + scrubbing). It requires
// EnableDistributed to have been called, and is idempotent per server —
// the second call is an error. The loop stops on Close.
//
// The initial registration is best effort: if the directory is unreachable
// the node starts anyway and the loop keeps retrying — a cache node must
// serve local traffic even while the control plane is down.
func (s *Server) StartMembership(cfg MembershipConfig) error {
	dist := s.dist
	if dist == nil {
		return fmt.Errorf("rpc: StartMembership before EnableDistributed")
	}
	dist.memMu.Lock()
	if dist.memStop != nil {
		dist.memMu.Unlock()
		return fmt.Errorf("rpc: membership loop already running")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = dkv.DefaultLeaseTTL
	}
	dist.memCfg = cfg
	dist.memStop = make(chan struct{})
	// Hand the loop its own copies: re-reading dist.memStop from inside the
	// goroutine would race with StopMembership nilling it, leaving a
	// late-scheduled loop selecting on a nil channel forever.
	loopCfg, stop := dist.memCfg, dist.memStop
	dist.memMu.Unlock()

	s.registerAndReconcile()

	dist.memWG.Add(1)
	go s.membershipLoop(loopCfg, stop)
	return nil
}

// StopMembership halts the lifecycle loop (idempotent; Close calls it).
func (s *Server) StopMembership() {
	dist := s.dist
	if dist == nil {
		return
	}
	dist.memMu.Lock()
	stop := dist.memStop
	dist.memStop = nil
	dist.memMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	dist.memWG.Wait()
}

// MembershipStats reports the node-side lifecycle counters (zeros when the
// loop never ran).
func (s *Server) MembershipStats() metrics.MembershipStats {
	dist := s.dist
	if dist == nil {
		return metrics.MembershipStats{}
	}
	return metrics.SnapshotUnder(&dist.memMu, &dist.mem)
}

// LastHeartbeat reports when the node last renewed its lease successfully
// (zero time when it never has).
func (s *Server) LastHeartbeat() time.Time {
	dist := s.dist
	if dist == nil {
		return time.Time{}
	}
	return metrics.SnapshotUnder(&dist.memMu, &dist.lastBeat)
}

func (s *Server) membershipLoop(cfg MembershipConfig, stop chan struct{}) {
	dist := s.dist
	defer dist.memWG.Done()
	beat := time.NewTicker(cfg.LeaseTTL / 4)
	defer beat.Stop()
	scrub := time.NewTicker(cfg.LeaseTTL / 2)
	defer scrub.Stop()
	for {
		select {
		case <-stop:
			return
		case <-beat.C:
			s.heartbeatOnce()
		case <-scrub.C:
			s.scrubOnce()
		}
	}
}

// member is this node's identity for the lifecycle steps (dkv/lifecycle.go),
// which this loop runs.
func (s *Server) member() dkv.Member {
	dist := s.dist
	return dkv.Member{Dir: dist.dir, ID: dist.nodeID, TTL: dist.memCfg.LeaseTTL, Cache: lockedResidents{s}}
}

// heartbeatOnce renews the lease; a lapsed one (the node was partitioned or
// paused past its TTL) re-registers and reconciles ownership.
func (s *Server) heartbeatOnce() { s.noteStep(s.member().Heartbeat()) }

// registerAndReconcile grants the node a fresh lease and replays ownership
// claims for everything it caches: the boot path (a restarted server
// re-claims its checkpoint-restored residents) and the split-brain repair
// path alike.
func (s *Server) registerAndReconcile() { s.noteStep(s.member().Rejoin()) }

// scrubOnce runs one bounded anti-entropy sweep. Only the loop goroutine (or
// a test in its place) sweeps, so the cursor is read and written around a
// step that holds no lock.
func (s *Server) scrubOnce() {
	dist := s.dist
	mark := metrics.SnapshotUnder(&dist.memMu, &dist.scrubMark)
	mark, d, err := s.member().Scrub(mark, dist.scrubBatch)
	dist.memMu.Lock()
	dist.scrubMark = mark
	dist.memMu.Unlock()
	dist.owners.forgetAll() // a remembered owner drifts from the directory one scrub interval at most
	s.noteStep(d, err)
}

// noteStep books a finished step: its counter delta under memMu, the
// directory failure that cut it short, the node-side view of a Live→Suspect
// flip (the directory let the lease lapse), and after a re-registration, which
// may have found ownership moved, a fresh generation of remembered owners.
func (s *Server) noteStep(d metrics.MembershipStats, err error) {
	dist := s.dist
	if err != nil {
		s.countDirFailure()
	}
	if d.Registers > 0 {
		dist.owners.forgetAll()
	}
	dist.memMu.Lock()
	dist.mem.Add(d)
	if d.Heartbeats+d.Registers > 0 {
		dist.lastBeat = time.Now()
	}
	dist.memMu.Unlock()
	if d.HeartbeatRejects > 0 {
		s.journal.Add(obs.EventMembership, s.journalNode(), 0, 0, "lease lapsed; re-registered")
	}
}

// lockedResidents is the steps' view of the policy engine: every call is one
// short policyMu hold, so no directory round trip ever happens under the
// lock (the steps call the directory between, never inside, these).
type lockedResidents struct{ s *Server }

func (v lockedResidents) Residents(dst []dataset.SampleID) []dataset.SampleID {
	v.s.policyMu.Lock()
	defer v.s.policyMu.Unlock()
	return v.s.cache.Residents(dst)
}

func (v lockedResidents) Resident(id dataset.SampleID) bool {
	v.s.policyMu.Lock()
	defer v.s.policyMu.Unlock()
	return v.s.cache.Resident(id)
}

// DropFor removes a sample this node must not keep (the directory credits
// another node), tagging the eviction with its decision reason. A directed
// drop does not reach the eviction observer, so the payload is deleted here,
// in the same policyMu hold; there is no ownership to release.
func (v lockedResidents) DropFor(id dataset.SampleID, reason dkv.DropReason) bool {
	v.s.policyMu.Lock()
	defer v.s.policyMu.Unlock()
	dropped := v.s.cache.DropFor(id, reason)
	if dropped {
		v.s.payloads.delete(id)
	}
	return dropped
}

func (s *Server) countDirFailure() {
	if s.dist != nil {
		atomic.AddInt64(&s.dist.dirFailures, 1)
	}
}

// healthzResponse is the JSON document served by HealthHandler.
type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Distributed   bool    `json:"distributed"`
	NodeID        int64   `json:"node_id,omitempty"`
	// LeaseAgeSeconds is the time since the last successful lease
	// renewal; -1 when the node has never heard from the directory or the
	// lifecycle loop is not running.
	LeaseAgeSeconds float64                 `json:"lease_age_seconds"`
	Membership      metrics.MembershipStats `json:"membership"`
}

// HealthHandler serves a small liveness document on GET (any path): HTTP
// 200 with status "ok" while the server runs, plus the node's lease age and
// lifecycle counters when distribution is enabled. Operators point
// readiness probes at it next to the metrics endpoint.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		resp := healthzResponse{
			Status:          "ok",
			UptimeSeconds:   time.Since(s.start).Seconds(),
			Distributed:     s.dist != nil,
			LeaseAgeSeconds: -1,
		}
		if dist := s.dist; dist != nil {
			resp.NodeID = int64(dist.nodeID)
			resp.Membership = s.MembershipStats()
			if last := s.LastHeartbeat(); !last.IsZero() {
				resp.LeaseAgeSeconds = time.Since(last).Seconds()
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil && s.Logf != nil {
			s.Logf("rpc: healthz encode: %v", err)
		}
	})
}
