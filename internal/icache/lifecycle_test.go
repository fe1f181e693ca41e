package icache

// Node-lifecycle chaos suite (ISSUE 3 acceptance): kill a node mid-epoch
// and the survivor keeps serving; the dead node's directory entries are
// reclaimed or purged within one lease cycle; the node rejoins from a
// checkpoint replaying ownership claims (denied claims drop the local
// copy); request conservation holds across crash, reclaim and rejoin; and
// the whole scenario is bit-for-bit deterministic under its seeds.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/leakcheck"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// lifecycleConfig returns cluster timings fast enough that lease expiry,
// reclaim and scrubbing all happen inside a test-sized run.
func lifecycleConfig(perNode int64) ClusterConfig {
	cfg := DefaultClusterConfig(2, perNode)
	cfg.LeaseTTL = 400 * time.Millisecond
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.SuspectWindow = 400 * time.Millisecond
	cfg.ScrubInterval = 200 * time.Millisecond
	cfg.ScrubBatch = 4096
	return cfg
}

func lifecycleCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	back, err := storage.NewBackend(chaosSpec(), storage.NFS())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(back, lifecycleConfig(back.Spec().TotalBytes()/5), sampling.DefaultIIS(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func lifecycleTracker(t *testing.T, rng *rand.Rand) *sampling.Tracker {
	t.Helper()
	tr, err := sampling.NewTracker(chaosSpec().NumSamples, 3.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chaosSpec().NumSamples; i++ {
		tr.Observe(dataset.SampleID(i), chaosSpec().Difficulty(dataset.SampleID(i))*2+rng.Float64()*0.1)
	}
	return tr
}

// lifecycleSummary is everything the determinism check compares.
type lifecycleSummary struct {
	Stats    metrics.CacheStats
	Res      metrics.ResilienceStats
	Mem      metrics.MembershipStats
	Requests int64
	DirLen   int
}

// runKillRejoinScenario drives the full crash/reclaim/rejoin story on one
// seeded cluster and returns a summary for the determinism comparison.
func runKillRejoinScenario(t *testing.T, seed int64) lifecycleSummary {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cl := lifecycleCluster(t, seed)
	tr := lifecycleTracker(t, rng)

	var requests int64
	ats := make([]simclock.Time, 2)
	serve := func(node int, batch []dataset.SampleID) {
		end, served := cl.FetchBatchOn(node, ats[node], batch)
		if len(served) != len(batch) {
			t.Fatalf("node %d served %d of %d", node, len(served), len(batch))
		}
		requests += int64(len(batch))
		ats[node] = end
	}

	// Epoch 0: both nodes, round-robin. Warms both caches and populates the
	// directory.
	sched := cl.BeginEpoch(ats[0], 0, tr, rng)
	for i, b := range sched.Batches(128) {
		serve(i%2, b)
	}

	// Epoch 1: checkpoint and SIGKILL node 1 halfway through; the survivor
	// absorbs the remaining batches mid-epoch.
	sched = cl.BeginEpoch(ats[0], 1, tr, rng)
	batches := sched.Batches(128)
	half := len(batches) / 2
	var ckpt NodeCheckpoint
	var killedAt simclock.Time
	var ownedAtKill, cachedAtKill int
	for i, b := range batches {
		if i == half {
			ckpt = cl.SnapshotNode(1)
			cachedAtKill = len(cl.nodes[1].srv.Residents(nil))
			owned, err := cl.dir.OwnedBy(dkv.NodeID(1), 0)
			if err != nil {
				t.Fatal(err)
			}
			ownedAtKill = len(owned)
			killedAt = ats[1]
			cl.KillNode(1, ats[1])
			cl.KillNode(1, ats[1]) // killing a dead node is a no-op
		}
		if cl.NodeAlive(1) {
			serve(i%2, b)
		} else {
			serve(0, b)
		}
	}
	if cl.NodeAlive(1) {
		t.Fatal("node 1 still alive after KillNode")
	}
	if ownedAtKill == 0 {
		t.Fatal("node 1 owned nothing at kill time; scenario proves nothing")
	}
	if cachedAtKill == 0 {
		t.Fatal("empty checkpoint; scenario proves nothing")
	}

	// Survivor-only epochs until virtual time is safely past the dead
	// node's lease + suspect window + a scrub cycle.
	deadline := killedAt + simclock.Time(cl.cfg.LeaseTTL+cl.cfg.SuspectWindow+2*cl.cfg.ScrubInterval)
	for e := 2; ats[0] < deadline; e++ {
		if e >= 12 {
			t.Fatalf("virtual time %v never reached reclaim deadline %v", ats[0], deadline)
		}
		sched = cl.BeginEpoch(ats[0], e, tr, rng)
		for _, b := range sched.Batches(128) {
			serve(0, b)
		}
	}

	// Nothing routes to the dead node any more: every directory entry it
	// owned was reclaimed on the demand path or purged by the scrubber.
	owned, err := cl.dir.OwnedBy(dkv.NodeID(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned) != 0 {
		t.Errorf("dead node still owns %d directory entries past its lease", len(owned))
	}
	mem := cl.Membership()
	if mem.Deaths == 0 {
		t.Error("lease expiry never declared the killed node dead")
	}
	if mem.Reclaims+mem.Purged == 0 {
		t.Error("no dead-owned entries reclaimed or purged")
	}
	if mem.Heartbeats == 0 {
		t.Error("the survivor never heartbeated")
	}
	if mem.ScrubSweeps == 0 {
		t.Error("the scrubber never ran")
	}

	// Rejoin from the checkpoint: fresh lease, claims replayed; every
	// checkpoint entry is accounted for as replayed or denied.
	memBefore := cl.Membership()
	if err := cl.RestartNode(1, ats[0], &NodeCheckpoint{Node: 0}); err == nil {
		t.Error("another node's checkpoint accepted")
	}
	if err := cl.RestartNode(1, ats[0], &ckpt); err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartNode(1, ats[0], nil); err == nil {
		t.Error("restarting a live node did not error")
	}
	ats[1] = ats[0]
	memAfter := cl.Membership()
	replayed := (memAfter.ReplayedClaims - memBefore.ReplayedClaims) +
		(memAfter.ReplayDenied - memBefore.ReplayDenied)
	if want := int64(cachedAtKill); replayed != want {
		t.Errorf("rejoin replayed %d claims, checkpoint holds %d entries", replayed, want)
	}
	if memAfter.Revivals == 0 {
		t.Error("rejoin registration revived nothing")
	}

	// Final epoch with both nodes back: the cluster serves normally and all
	// structural invariants hold.
	sched = cl.BeginEpoch(ats[0], 99, tr, rng)
	for i, b := range sched.Batches(128) {
		serve(i%2, b)
	}
	assertClusterInvariants(t, cl, requests)

	dirLen, err := cl.dir.Len()
	if err != nil {
		t.Fatal(err)
	}
	return lifecycleSummary{
		Stats:    cl.Stats(),
		Res:      cl.Resilience(),
		Mem:      cl.Membership(),
		Requests: requests,
		DirLen:   dirLen,
	}
}

// TestLifecycleKillReclaimRejoin is the acceptance test: for three seeds,
// the full crash/reclaim/rejoin scenario preserves conservation and is
// deterministic under repetition.
func TestLifecycleKillReclaimRejoin(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			leakcheck.Check(t)
			first := runKillRejoinScenario(t, seed)
			if first.Stats.Degraded != 0 {
				t.Errorf("fault-free lifecycle scenario recorded %d degraded requests", first.Stats.Degraded)
			}
			second := runKillRejoinScenario(t, seed)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed produced different runs:\n first: %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// shardedLifecycleCluster builds a 2-node cluster whose directory is three
// simulated replicas behind a dkv.ShardedDir on the virtual clock.
func shardedLifecycleCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	back, err := storage.NewBackend(chaosSpec(), storage.NFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := lifecycleConfig(back.Spec().TotalBytes() / 5)
	cfg.DirReplicas = 3
	cl, err := NewCluster(back, cfg, sampling.DefaultIIS(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// dirFailoverSummary is everything the determinism check compares for the
// partitioned-directory chaos scenario.
type dirFailoverSummary struct {
	Stats      metrics.CacheStats
	Mem        metrics.MembershipStats
	Requests   int64
	DirLen     int
	ReplicaLen [3]int
}

// runDirReplicaFailoverScenario kills one of three directory replicas
// mid-epoch and pins the partitioned-directory acceptance criteria: the
// nodes keep serving with a degraded-request delta of ZERO (the sharded
// client fails the dead shards over inside the call), conservation stays
// exact, failover is observed within one lease cycle, and a restarted
// (empty) replica is repopulated organically through the heartbeat-reject →
// re-register → reconcile path.
func runDirReplicaFailoverScenario(t *testing.T, seed int64, victim int) dirFailoverSummary {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cl := shardedLifecycleCluster(t, seed)
	tr := lifecycleTracker(t, rng)

	var requests int64
	ats := make([]simclock.Time, 2)
	serve := func(node int, batch []dataset.SampleID) {
		end, served := cl.FetchBatchOn(node, ats[node], batch)
		if len(served) != len(batch) {
			t.Fatalf("node %d served %d of %d", node, len(served), len(batch))
		}
		requests += int64(len(batch))
		ats[node] = end
	}
	driveEpoch := func(e int) {
		sched := cl.BeginEpoch(ats[0], e, tr, rng)
		for i, b := range sched.Batches(128) {
			serve(i%2, b)
		}
	}

	// Epoch 0 against a healthy partitioned directory: claims spread over
	// all three replicas by rendezvous routing.
	driveEpoch(0)
	if n := cl.rawDirs[victim].Len(); n == 0 {
		t.Fatalf("replica %d owns no shard entries after warm-up; scenario proves nothing", victim)
	}
	assertClusterInvariants(t, cl, requests)

	// Kill the victim mid-epoch 1. Everything after this point must be
	// absorbed by the sharded client: zero degraded requests, no errors.
	degradedBefore := cl.Stats().Degraded
	sched := cl.BeginEpoch(ats[0], 1, tr, rng)
	batches := sched.Batches(128)
	var killedAt simclock.Time
	for i, b := range batches {
		if i == len(batches)/2 {
			killedAt = ats[i%2]
			cl.KillDirReplica(victim, killedAt)
		}
		serve(i%2, b)
	}
	if cl.DirReplicaAlive(victim) {
		t.Fatalf("replica %d still alive after KillDirReplica", victim)
	}

	// Failover is client-observed and in-call: by the end of the epoch the
	// ring has recorded it, and within one lease cycle of virtual time the
	// routing view has settled on the two survivors.
	ring, ok := cl.DirRing()
	if !ok {
		t.Fatal("DirRing reported no sharded directory")
	}
	if ring.Failovers < 1 {
		t.Error("killing a replica mid-epoch recorded no failover")
	}
	leaseCycle := simclock.Time(cl.cfg.LeaseTTL + cl.cfg.SuspectWindow)
	for e := 2; ats[0] < killedAt+leaseCycle; e++ {
		if e >= 12 {
			t.Fatalf("virtual time %v never passed one lease cycle after the kill", ats[0])
		}
		driveEpoch(e)
	}
	if ring, _ = cl.DirRing(); ring.LiveReplicas != 2 {
		t.Errorf("one lease cycle after the kill the client sees %d live replicas, want 2", ring.LiveReplicas)
	}

	// The headline pin: a directory replica crash is invisible to the
	// training job. Zero degraded requests, conservation exact.
	if delta := cl.Stats().Degraded - degradedBefore; delta != 0 {
		t.Errorf("replica crash degraded %d requests, want 0 (failover must absorb it)", delta)
	}
	assertClusterInvariants(t, cl, requests)

	// Restart the victim empty and drive until the sharded client re-admits
	// it (one FailoverTTL) and the nodes repopulate it: its fresh membership
	// table rejects their heartbeats, forcing re-register + reconcile, whose
	// claims land shard entries back on the revived replica.
	rejectsBefore := cl.Membership().HeartbeatRejects
	if err := cl.RestartDirReplica(victim, ats[0]); err != nil {
		t.Fatal(err)
	}
	for e := 20; cl.rawDirs[victim].Len() == 0; e++ {
		if e >= 32 {
			t.Fatalf("restarted replica %d never repopulated (len=0 after %d epochs)",
				victim, e-20)
		}
		driveEpoch(e)
	}
	if cl.Membership().HeartbeatRejects == rejectsBefore {
		t.Error("revived empty replica never rejected a heartbeat — repopulation path untested")
	}
	if ring, _ = cl.DirRing(); ring.LiveReplicas != 3 {
		t.Errorf("after restart the client sees %d live replicas, want 3", ring.LiveReplicas)
	}
	if got := cl.Stats().Degraded; got != degradedBefore {
		t.Errorf("restart/repopulation degraded %d requests, want 0", got-degradedBefore)
	}
	assertClusterInvariants(t, cl, requests)

	sum := dirFailoverSummary{
		Stats:    cl.Stats(),
		Mem:      cl.Membership(),
		Requests: requests,
	}
	var err error
	if sum.DirLen, err = cl.dir.Len(); err != nil {
		t.Fatal(err)
	}
	for r := range sum.ReplicaLen {
		sum.ReplicaLen[r] = cl.rawDirs[r].Len()
	}
	return sum
}

// TestChaosDirReplicaFailover is the cluster-simulation acceptance gate for
// the partitioned directory: for three seeds (each killing a different
// replica), the crash/failover/restart scenario keeps the degraded-request
// delta at zero, preserves conservation, and is bit-for-bit deterministic
// under repetition.
func TestChaosDirReplicaFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	for i, seed := range []int64{1, 42, 1337} {
		seed, victim := seed, i%3
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			leakcheck.Check(t)
			first := runDirReplicaFailoverScenario(t, seed, victim)
			second := runDirReplicaFailoverScenario(t, seed, victim)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed produced different runs:\n first: %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// runDirPartitionScenario warms both nodes for an epoch, then lets the
// directory fail the way the shipped node meets it: first only releases are
// lost, so what the nodes go on evicting stays registered to them; then every
// operation fails for longer than the lease TTL, each failure counted and
// degrading its one request, and the leases lapse. Conservation is checked at
// every epoch end, and once every node's clock is one ScrubInterval past the
// heal — each has re-registered and run a whole sweep since — the directory
// must credit every node exactly what it caches.
func runDirPartitionScenario(t *testing.T, seed int64) lifecycleSummary {
	t.Helper()
	cl := lifecycleCluster(t, seed)
	rng := rand.New(rand.NewSource(seed))
	tr := lifecycleTracker(t, rng)
	var requests int64
	ats := make([]simclock.Time, 2)
	driveEpoch := func(e int) {
		sched := cl.BeginEpoch(ats[0], e, tr, rng)
		for i, b := range sched.Batches(128) {
			node := i % 2
			end, served := cl.FetchBatchOn(node, ats[node], b)
			if len(served) != len(b) {
				t.Fatalf("epoch %d: served %d of %d", e, len(served), len(b))
			}
			requests += int64(len(b))
			ats[node] = end
		}
		assertClusterInvariants(t, cl, requests)
	}
	driveEpoch(0)

	// Releases fail first, while admissions still evict; then everything.
	from := min(ats[0], ats[1])
	down := max(ats[0], ats[1]) + 300*time.Millisecond
	until := down + 800*time.Millisecond
	part := func(op string) faults.Rule { return faults.Partition(op, down, until, nil) }
	cl.SetFaultInjector(faults.New(seed).Add(
		faults.Partition(faults.OpDirRelease, from, until, nil),
		part(faults.OpDirLookup), part(faults.OpDirClaim),
		part(faults.OpDirHeartbeat), part(faults.OpDirRegister), part(faults.OpDirScan),
	))
	repaired := until + simclock.Time(cl.cfg.ScrubInterval)
	for e := 1; min(ats[0], ats[1]) < repaired; e++ {
		if e >= 12 {
			t.Fatalf("virtual time %v never passed the partition window", ats)
		}
		driveEpoch(e)
	}
	for _, n := range cl.nodes {
		owned, err := cl.dir.OwnedBy(n.id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cached := n.srv.Residents(nil); !slices.Equal(owned, cached) {
			t.Errorf("one scrub after the heal the directory credits node %d with %d samples, it caches %d",
				n.id, len(owned), len(cached))
		}
	}
	return lifecycleSummary{
		Stats:    cl.Stats(),
		Res:      cl.Resilience(),
		Mem:      cl.Membership(),
		Requests: requests,
		DirLen:   cl.DirectoryLen(),
	}
}

// TestChaosDirPartitionRepairedByScrub: for three seeds the partition bites
// and is counted, and the run is bit-for-bit deterministic under repetition.
func TestChaosDirPartitionRepairedByScrub(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			first := runDirPartitionScenario(t, seed)
			if first.Res.DirFailures == 0 {
				t.Error("directory partition produced no DirFailures")
			}
			if first.Stats.Degraded == 0 {
				t.Error("a full directory partition degraded nothing")
			}
			if first.Mem.ScrubReleased == 0 {
				t.Error("no release was lost to the partition; the scrubber repaired nothing")
			}
			if second := runDirPartitionScenario(t, seed); !reflect.DeepEqual(first, second) {
				t.Errorf("same seed produced different runs:\n first: %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestHeartbeatLapseTriggersReregistration: the partition outlasts the lease
// TTL, so the node's first heartbeat after the heal is rejected, and it
// re-registers and reconciles ownership.
func TestHeartbeatLapseTriggersReregistration(t *testing.T) {
	mem := runDirPartitionScenario(t, 13).Mem
	if mem.HeartbeatRejects == 0 {
		t.Error("lapsed lease never rejected a heartbeat")
	}
	if mem.Revivals == 0 {
		t.Error("re-registration revived nothing")
	}
	if mem.ReplayedClaims == 0 {
		t.Error("ownership reconciliation re-claimed nothing")
	}
}
