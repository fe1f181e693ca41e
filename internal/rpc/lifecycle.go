package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/obs"
)

// This file is the wall-clock node-lifecycle loop of the network server —
// the production counterpart of the virtual-clock lifecycle in
// internal/icache/lifecycle.go. A distributed server registers itself in
// the shared directory under a TTL lease, renews it on a heartbeat ticker,
// runs a bounded anti-entropy scrub on a second ticker, and replays
// ownership claims for its restored residents after a crash/rejoin.
//
// Locking: the loop goroutine takes policyMu only for short resident-set
// snapshots and drops; every directory round trip happens with no server
// lock held, per the contract in peer.go. Counters live behind distState's
// dedicated memMu (leaf lock, never nests).

// MembershipConfig parameterizes the lifecycle loop. Zero fields select
// defaults derived from LeaseTTL so a healthy node renews several times per
// TTL.
type MembershipConfig struct {
	// LeaseTTL is this node's lease duration in the directory. Zero selects
	// the directory's default TTL (the server sends ttl=0 and lets the
	// directory pick).
	LeaseTTL time.Duration
	// HeartbeatInterval is the lease renewal period. Zero selects
	// LeaseTTL/4 (or 2.5s when LeaseTTL is also zero).
	HeartbeatInterval time.Duration
	// ScrubInterval is the anti-entropy sweep period. Zero selects
	// LeaseTTL/2 (or 5s when LeaseTTL is also zero).
	ScrubInterval time.Duration
	// ScrubBatch bounds one sweep's directory work. Zero selects 256.
	ScrubBatch int
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	ttl := c.LeaseTTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = ttl / 4
	}
	if c.ScrubInterval <= 0 {
		c.ScrubInterval = ttl / 2
	}
	if c.ScrubBatch <= 0 {
		c.ScrubBatch = 256
	}
	return c
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
	dist.memCfg = cfg.withDefaults()
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
	beat := time.NewTicker(cfg.HeartbeatInterval)
	defer beat.Stop()
	scrub := time.NewTicker(cfg.ScrubInterval)
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

// heartbeatOnce renews the lease; a rejected renewal means the lease lapsed
// (the node was partitioned or paused past its TTL) and its entries may have
// been reclaimed, so it re-registers and reconciles ownership.
func (s *Server) heartbeatOnce() {
	dist := s.dist
	renewed, err := dist.dir.Heartbeat(dist.nodeID)
	if err != nil {
		s.countDirFailure()
		return
	}
	dist.memMu.Lock()
	if renewed {
		dist.mem.Heartbeats++
		dist.lastBeat = time.Now()
	} else {
		dist.mem.HeartbeatRejects++
	}
	dist.memMu.Unlock()
	if !renewed {
		// The node-side view of a Live→Suspect flip: the directory let the
		// lease lapse, so ownership may have moved while this node was away.
		s.journal.Add(obs.EventMembership, s.journalNode(), 0, 0,
			"lease lapsed; re-registering")
		s.registerAndReconcile()
	}
}

// registerAndReconcile grants the node a fresh lease and replays ownership
// claims for everything it currently caches. It is both the boot path (a
// restarted server re-claims its checkpoint-restored residents) and the
// split-brain repair path (a node that out-lived its lease must not assume
// it still owns anything). Claims the directory denies mean another node
// took the sample over while this one was away: the local copy is dropped,
// preserving the no-duplication invariant.
func (s *Server) registerAndReconcile() {
	dist := s.dist
	if _, err := dist.dir.Register(dist.nodeID, dist.memCfg.LeaseTTL); err != nil {
		s.countDirFailure()
		return
	}
	dist.memMu.Lock()
	dist.mem.Registers++
	dist.lastBeat = time.Now()
	dist.memMu.Unlock()

	s.policyMu.Lock()
	ids := s.cache.Residents(nil)
	s.policyMu.Unlock()
	for _, id := range ids {
		claimed, err := dist.dir.Claim(id, dist.nodeID)
		if err != nil {
			s.countDirFailure()
			return // directory sick; the next heartbeat cycle retries
		}
		dist.memMu.Lock()
		if claimed {
			dist.mem.ReplayedClaims++
		} else {
			dist.mem.ReplayDenied++
		}
		dist.memMu.Unlock()
		if !claimed {
			// A restored resident whose replayed claim was denied: the
			// survivor won while this node was away.
			s.dropResident(id, icache.DropCheckpointDenied)
		}
	}
}

// scrubOnce runs one bounded anti-entropy sweep: release directory entries
// this node no longer caches, re-claim (or drop) cached samples the
// directory does not credit to it, and purge a batch of Dead-owned entries
// as a backstop.
func (s *Server) scrubOnce() {
	dist := s.dist
	batch := dist.memCfg.ScrubBatch

	// Direction 1: registered but not cached → release.
	owned, err := dist.dir.OwnedBy(dist.nodeID, batch)
	if err != nil {
		s.countDirFailure()
		return
	}
	for _, id := range owned {
		s.policyMu.Lock()
		resident := s.cache.Resident(id)
		s.policyMu.Unlock()
		if resident {
			continue
		}
		if _, err := dist.dir.Release(id, dist.nodeID); err != nil {
			s.countDirFailure()
			return
		}
		dist.memMu.Lock()
		dist.mem.ScrubReleased++
		dist.memMu.Unlock()
	}

	// Direction 2: cached but not registered → re-claim, or drop the copy
	// when a peer owns it. A watermark into the sorted resident set keeps
	// each sweep bounded while eventually covering everything.
	s.policyMu.Lock()
	ids := s.cache.Residents(nil)
	s.policyMu.Unlock()
	if len(ids) > 0 {
		dist.memMu.Lock()
		if dist.scrubMark >= len(ids) {
			dist.scrubMark = 0
		}
		mark := dist.scrubMark
		dist.memMu.Unlock()
		limit := batch
		if limit > len(ids) {
			limit = len(ids)
		}
		// One LookupBatch answers ownership for the whole window: the sweep
		// costs one directory round trip instead of ScrubBatch serial
		// lookups (claims/releases stay per-id — they are the rare repairs,
		// not the common probe).
		window := make([]dataset.SampleID, 0, limit)
		for i := 0; i < limit; i++ {
			window = append(window, ids[(mark+i)%len(ids)])
		}
		owners, err := dist.dir.LookupBatch(window)
		if err != nil || len(owners) != len(window) {
			s.countDirFailure()
			return
		}
		for i, id := range window {
			owner, found := owners[i].Node, owners[i].Found
			if found && owner == dist.nodeID {
				continue
			}
			if found {
				s.dropResident(id, icache.DropScrub)
				dist.memMu.Lock()
				dist.mem.ScrubDropped++
				dist.memMu.Unlock()
				continue
			}
			claimed, err := dist.dir.Claim(id, dist.nodeID)
			if err != nil {
				s.countDirFailure()
				return
			}
			dist.memMu.Lock()
			if claimed {
				dist.mem.ScrubReclaimed++
			} else {
				dist.mem.ScrubDropped++
			}
			dist.memMu.Unlock()
			if !claimed {
				s.dropResident(id, icache.DropScrub)
			}
		}
		dist.memMu.Lock()
		dist.scrubMark = (mark + limit) % len(ids)
		dist.memMu.Unlock()
	}

	if _, err := dist.dir.PurgeDead(batch); err != nil {
		s.countDirFailure()
		return
	}
	dist.memMu.Lock()
	dist.mem.ScrubSweeps++
	dist.memMu.Unlock()
}

// dropResident removes a sample this node must not keep (the directory says
// another node owns it, or a denied claim), tagging the eviction with its
// decision reason. A directed drop does not reach the eviction observer, so
// the payload is deleted here, in the same policyMu hold; there is no
// ownership to release — the directory credits another node.
func (s *Server) dropResident(id dataset.SampleID, reason icache.DropReason) {
	s.policyMu.Lock()
	if s.cache.DropFor(id, reason) {
		s.payloads.delete(id)
	}
	s.policyMu.Unlock()
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
