package dkv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/simclock"
	"icache/internal/transport"
)

// ShardedDir is the replica-aware directory client: it satisfies the
// fallible Service contract over N replica Services (network DirClients in
// a deployment, in-process Locals in the simulation, fault-wrapped Dirs in
// chaos tests), routing every data operation to the rendezvous owner of
// the sample's shard and fanning membership operations out to every live
// replica.
//
// Failover is client-observed and lease-paced, reusing the membership
// timing model of PR 3: a replica whose operation fails at the transport
// level is marked down, the ring view's epoch is bumped (its shards remap
// to survivors — rendezvous hashing moves only the dead replica's keys),
// and the failed operation retries against the new shard owner in the same
// call. A down replica re-enters the ring after FailoverTTL (one lease
// cycle), so a restarted replica is re-probed — and re-populated by the
// nodes' heartbeat/reregister/scrub machinery — without operator action.
//
// An operation only fails outward when a shard has NO live holder, which
// under rendezvous hashing means every replica is down; callers treat that
// exactly like the old single-directory outage (degraded local-only mode).
//
// ShardedDir is safe for concurrent use: the view and health state are
// mutex-guarded, and replica calls happen outside the lock.
type ShardedDir struct {
	cfg ShardedConfig

	mu       sync.Mutex
	replicas map[ReplicaID]Service
	view     RingView
	downTil  map[ReplicaID]simclock.Time // reprobe deadlines for down replicas
	start    time.Time                   // wall epoch for the default clock
	stats    RingStats
}

// ShardedConfig tunes a ShardedDir.
type ShardedConfig struct {
	// FailoverTTL is how long a failed replica stays out of the ring before
	// it is re-probed (one lease cycle). Zero selects DefaultLeaseTTL.
	FailoverTTL time.Duration
	// Clock supplies the time base for reprobe deadlines. Nil selects wall
	// time since construction; simulations install a virtual-clock reader so
	// failover timing is deterministic.
	Clock func() simclock.Time
}

// RingStats counts client-observed ring events. Like MembershipStats these
// are observability counters, not part of the conservation invariant.
type RingStats struct {
	Epoch        uint64 // current view epoch
	LiveReplicas int    // gauge: replicas currently in the view
	Failovers    int64  // replicas marked down after a failed operation
	Revivals     int64  // down replicas re-admitted after FailoverTTL
	Retries      int64  // operations retried against a new shard owner
}

// ErrNoReplica is returned when a shard has no live holder — every
// configured replica is down. Callers degrade exactly as they would for a
// single unreachable directory.
var ErrNoReplica = errors.New("dkv: no live directory replica for shard")

// NewShardedDir builds a replica-aware directory client over the given
// replica set. The initial view (epoch 1) trusts every configured replica.
func NewShardedDir(replicas map[ReplicaID]Service, cfg ShardedConfig) *ShardedDir {
	if len(replicas) == 0 {
		panic("dkv: NewShardedDir with no replicas")
	}
	if cfg.FailoverTTL <= 0 {
		cfg.FailoverTTL = DefaultLeaseTTL
	}
	ids := make([]ReplicaID, 0, len(replicas))
	for r := range replicas {
		ids = append(ids, r)
	}
	s := &ShardedDir{
		cfg:      cfg,
		replicas: make(map[ReplicaID]Service, len(replicas)),
		view:     NewRingView(1, ids),
		downTil:  make(map[ReplicaID]simclock.Time),
		start:    time.Now(),
	}
	for r, svc := range replicas {
		s.replicas[r] = svc
	}
	return s
}

// DialSharded connects one DirClient per replica address (replica i gets
// ReplicaID i, matching icache-dkv's -replica-id convention), each dialled
// with dial — its own connection, per-call bound and circuit breaker, so a
// replica that accepts and never answers stalls one bounded call and is then
// failed over, without blocking the calls to the others — and wraps them in
// a ShardedDir. A single address yields single-shard routing — the legacy
// one-directory deployment expressed in the new shape.
func DialSharded(addrs []string, dial DialConfig, cfg ShardedConfig) (*ShardedDir, error) {
	replicas := make(map[ReplicaID]Service, len(addrs))
	var clients []*DirClient
	for i, addr := range addrs {
		c, err := DialDirConfigured(addr, dial)
		if err != nil {
			for _, prev := range clients {
				prev.Close()
			}
			return nil, fmt.Errorf("dkv: replica %d: %w", i, err)
		}
		clients = append(clients, c)
		replicas[ReplicaID(i)] = c
	}
	return NewShardedDir(replicas, cfg), nil
}

// Close tears down any replica services that are closable (DirClients).
func (s *ShardedDir) Close() error {
	var first error
	for _, r := range s.replicaIDs() {
		if c, ok := s.replicas[r].(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// now reads the failover clock.
func (s *ShardedDir) now() simclock.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return simclock.Time(time.Since(s.start))
}

// replicaIDs reports every configured replica, sorted (deterministic walks).
func (s *ShardedDir) replicaIDs() []ReplicaID {
	ids := make([]ReplicaID, 0, len(s.replicas))
	for r := range s.replicas {
		ids = append(ids, r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// reviveDue re-admits down replicas whose reprobe deadline has passed
// (mu held). Each re-admission bumps the epoch: placement changed.
func (s *ShardedDir) reviveDue(now simclock.Time) {
	if len(s.downTil) == 0 {
		return
	}
	var due []ReplicaID
	for r, til := range s.downTil {
		if now >= til {
			due = append(due, r)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	live := append([]ReplicaID(nil), s.view.Replicas...)
	for _, r := range due {
		delete(s.downTil, r)
		live = append(live, r)
		s.stats.Revivals++
	}
	s.view = NewRingView(s.view.Epoch+1, live)
}

// markDown removes r from the ring after a failed operation and schedules
// its reprobe one FailoverTTL out. No-op if r is already out (a concurrent
// caller won the race).
func (s *ShardedDir) markDown(r ReplicaID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.view.Contains(r) {
		return
	}
	live := make([]ReplicaID, 0, len(s.view.Replicas)-1)
	for _, x := range s.view.Replicas {
		if x != r {
			live = append(live, x)
		}
	}
	s.view = NewRingView(s.view.Epoch+1, live)
	s.downTil[r] = s.now() + simclock.Time(s.cfg.FailoverTTL)
	s.stats.Failovers++
}

// View reports the current ring view (replica slice copied).
func (s *ShardedDir) View() RingView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reviveDue(s.now())
	return NewRingView(s.view.Epoch, s.view.Replicas)
}

// Ring reports the client-observed ring counters.
func (s *ShardedDir) Ring() RingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Epoch = s.view.Epoch
	st.LiveReplicas = len(s.view.Replicas)
	return st
}

// route resolves id's current shard owner and its service. It revives due
// replicas first, so a restarted replica is probed by the next operation
// that routes to one of its shards.
func (s *ShardedDir) route(id dataset.SampleID) (ReplicaID, Service, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reviveDue(s.now())
	r, ok := s.view.Owner(id)
	if !ok {
		return 0, nil, ErrNoReplica
	}
	return r, s.replicas[r], nil
}

// liveServices snapshots the live replica set in sorted order (fan-out ops).
func (s *ShardedDir) liveServices() []ReplicaID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reviveDue(s.now())
	return append([]ReplicaID(nil), s.view.Replicas...)
}

// service reports the Service for r (configured set, independent of view).
func (s *ShardedDir) service(r ReplicaID) Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicas[r]
}

// retried counts one cross-replica retry.
func (s *ShardedDir) retried() {
	s.mu.Lock()
	s.stats.Retries++
	s.mu.Unlock()
}

// doSharded runs one single-sample operation against id's shard owner,
// failing over (mark down, remap, retry in this call) until it succeeds or
// no replica remains. Every directory operation is idempotent, so blind
// cross-replica retry is safe — the same argument that makes DirClient's
// reconnect-retry safe.
func (s *ShardedDir) doSharded(id dataset.SampleID, call func(Service) error) error {
	for attempt := 0; ; attempt++ {
		r, svc, err := s.route(id)
		if err != nil {
			return err
		}
		if err = call(svc); err == nil {
			return nil
		}
		s.markDown(r)
		if attempt > 0 {
			continue
		}
		s.retried()
	}
}

// budgetSpent reports whether a replica call failed because the REQUEST ran
// out of time — its forwarded deadline dl has passed and the replica answered
// StatusExpired or the local wait was cut off there. That is no evidence
// against the replica, and no other replica could do better (each would be
// marked down in turn, and one late request would take the ring out for a
// lease cycle), so the caller gets the error instead of a failover. A timeout
// BEFORE dl is the per-call bound firing: the replica accepted the call and
// did not answer, and the shard moves on without it.
func budgetSpent(err error, dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl) && errors.Is(err, transport.ErrDeadlineExceeded)
}

// Lookup reports which node owns id, routed to id's shard holder.
func (s *ShardedDir) Lookup(id dataset.SampleID) (NodeID, bool, error) {
	var node NodeID
	var found bool
	err := s.doSharded(id, func(svc Service) error {
		var err error
		node, found, err = svc.Lookup(id)
		return err
	})
	return node, found, err
}

// Claim registers node as the owner of id on id's shard holder.
func (s *ShardedDir) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	var claimed bool
	err := s.doSharded(id, func(svc Service) error {
		var err error
		claimed, err = svc.Claim(id, node)
		return err
	})
	return claimed, err
}

// Release removes node's ownership of id on id's shard holder.
func (s *ShardedDir) Release(id dataset.SampleID, node NodeID) (bool, error) {
	var released bool
	err := s.doSharded(id, func(svc Service) error {
		var err error
		released, err = svc.Release(id, node)
		return err
	})
	return released, err
}

// LookupBatch resolves many ids with ONE call per live shard owner,
// preserving the O(owners) round-trip budget of the batched miss path: the
// batch is grouped by rendezvous owner, each group rides its owner's own
// LookupBatch, and the aligned result is reassembled. A group whose owner
// fails mid-batch fails over — the owner is marked down and the group
// re-groups against the survivors — so one replica crash costs one extra
// round per affected group, never a degraded batch.
func (s *ShardedDir) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	return s.LookupBatchCtx(ids, obs.TraceCtx{}, time.Time{})
}

// LookupBatchCtx is LookupBatch forwarding a trace context and deadline to
// replicas that can carry them, so a traced request's per-shard directory
// hops all appear in the cross-node chain and every one of them inherits
// what is left of the request's budget.
func (s *ShardedDir) LookupBatchCtx(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]Owner, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out, err := perShard(s, ids, dl, func(svc Service, shard []dataset.SampleID) ([]Owner, error) {
		if cs, ok := svc.(CtxService); ok {
			return cs.LookupBatchCtx(shard, ctx, dl)
		}
		return svc.LookupBatch(shard)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch is the BatchService half of the sharded client: claims (release
// false) or releases of ids by node, one call per live shard owner — a few
// frames per replica through a DirClient, not one round trip per id — failed
// over group by group as LookupBatchCtx's are. With no replica left it returns
// the verdicts of the answered prefix of ids beside ErrNoReplica.
func (s *ShardedDir) WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	return perShard(s, ids, time.Time{}, func(svc Service, shard []dataset.SampleID) ([]bool, error) {
		if release {
			return ReleaseAll(svc, shard, node)
		}
		return ClaimAll(svc, shard, node)
	})
}

// perShard runs one batched operation over ids as one call per live shard
// owner and reassembles the answers aligned with ids. Owners are walked in
// sorted order so the call sequence — and therefore any fault schedule keyed
// on call counts — is deterministic. A call answers a prefix of its group; one
// that fails or answers short marks its owner down, and the ids it left
// unanswered re-group against the survivors, so one replica crash costs one
// extra round per affected group, never a failed batch. A call that spent the
// request's deadline dl (budgetSpent) ends the batch with its error. On an
// error the answers of the longest answered prefix of ids are returned.
func perShard[T any](s *ShardedDir, ids []dataset.SampleID, dl time.Time, call func(Service, []dataset.SampleID) ([]T, error)) ([]T, error) {
	out, answered := make([]T, len(ids)), make([]bool, len(ids))
	prefix := func() []T {
		n := 0
		for n < len(ids) && answered[n] {
			n++
		}
		return out[:n]
	}
	pending := make([]int, len(ids))
	for i := range ids {
		pending[i] = i
	}
	for len(pending) > 0 {
		s.mu.Lock()
		s.reviveDue(s.now())
		view := s.view
		s.mu.Unlock()
		if len(view.Replicas) == 0 {
			return prefix(), ErrNoReplica
		}
		groups := make(map[ReplicaID][]int)
		for _, i := range pending {
			r, _ := view.Owner(ids[i])
			groups[r] = append(groups[r], i)
		}
		owners := make([]ReplicaID, 0, len(groups))
		for r := range groups {
			owners = append(owners, r)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

		pending = pending[:0] // the groups hold copies
		for _, r := range owners {
			idxs := groups[r]
			shard := make([]dataset.SampleID, len(idxs))
			for k, i := range idxs {
				shard[k] = ids[i]
			}
			res, err := call(s.service(r), shard)
			if budgetSpent(err, dl) {
				return prefix(), err
			}
			res = res[:min(len(res), len(idxs))]
			for k, v := range res {
				out[idxs[k]], answered[idxs[k]] = v, true
			}
			if err != nil || len(res) < len(idxs) {
				s.markDown(r)
				s.retried()
				pending = append(pending, idxs[len(res):]...)
			}
		}
	}
	return out, nil
}

// fanOut runs call against every live replica in sorted order and hands each
// answer to fold; a replica that fails is marked down and skipped. It reports
// ErrNoReplica when none answered. The membership operations and directory
// scans below are this loop around their own merge rule.
func fanOut[T any](s *ShardedDir, call func(Service) (T, error), fold func(T)) error {
	answered := false
	for _, r := range s.liveServices() {
		v, err := call(s.service(r))
		if err != nil {
			s.markDown(r)
			continue
		}
		answered = true
		fold(v)
	}
	if !answered {
		return ErrNoReplica
	}
	return nil
}

// Len reports the total number of owned items across live replicas (shards
// are disjoint, so the sum is exact).
func (s *ShardedDir) Len() (int, error) {
	total := 0
	err := fanOut(s, Service.Len, func(n int) { total += n })
	return total, err
}

// Register grants node a lease on EVERY live replica: each replica tracks
// node liveness independently for the shards it holds, so a node must be
// Live everywhere to be routable everywhere. The first successful reply is
// returned; the call fails only when no replica accepted it.
func (s *ShardedDir) Register(node NodeID, ttl time.Duration) (NodeInfo, error) {
	var info NodeInfo
	first := true
	err := fanOut(s, func(svc Service) (NodeInfo, error) { return svc.Register(node, ttl) }, func(in NodeInfo) {
		if first {
			info, first = in, false
		}
	})
	return info, err
}

// Heartbeat renews node's lease on every live replica. renewed is the AND
// over the replicas that answered: any replica that no longer recognizes
// the lease (e.g. one that just restarted empty) reports false, which sends
// the node down the re-register + reconcile path — and Register's fan-out
// is exactly what repopulates the restarted replica's membership table.
func (s *ShardedDir) Heartbeat(node NodeID) (bool, error) {
	renewed := true
	err := fanOut(s, func(svc Service) (bool, error) { return svc.Heartbeat(node) }, func(ok bool) { renewed = renewed && ok })
	return renewed && err == nil, err
}

// ListNodes merges membership across live replicas. A node's state is the
// most-alive state any replica reports: a healthy node heartbeats every
// replica, so disagreement means a replica with stale (or freshly wiped)
// lease state, and routing should trust the replicas that still hold a
// current lease.
func (s *ShardedDir) ListNodes() ([]NodeInfo, error) {
	merged := make(map[NodeID]NodeInfo)
	err := fanOut(s, Service.ListNodes, func(nodes []NodeInfo) {
		for _, n := range nodes {
			cur, seen := merged[n.ID]
			if !seen || n.State < cur.State || (n.State == cur.State && n.ExpiresIn > cur.ExpiresIn) {
				merged[n.ID] = n
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]NodeInfo, 0, len(merged))
	for _, n := range merged {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// OwnedBy merges node's directory entries across live replicas (each holds
// its own shards' entries), sorted, capped at max (<= 0 means all).
func (s *ShardedDir) OwnedBy(node NodeID, max int) ([]dataset.SampleID, error) {
	var out []dataset.SampleID
	err := fanOut(s, func(svc Service) ([]dataset.SampleID, error) { return svc.OwnedBy(node, max) },
		func(ids []dataset.SampleID) { out = append(out, ids...) })
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, nil
}

// PurgeDead garbage-collects up to max Dead-owned entries on every live
// replica and reports the total removed.
func (s *ShardedDir) PurgeDead(max int) (int, error) {
	total := 0
	err := fanOut(s, func(svc Service) (int, error) { return svc.PurgeDead(max) }, func(n int) { total += n })
	return total, err
}
