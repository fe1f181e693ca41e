package icache

import (
	"errors"
	"fmt"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/simclock"
)

// The simulation's partitioned directory: with ClusterConfig.DirReplicas >
// 1 the cluster runs N in-process Directories — shards placed by rendezvous
// hashing, exactly as N icache-dkv replicas would hold them — behind one
// dkv.ShardedDir on the cluster's virtual clock. Each replica sits inside a
// replicaHolder that the chaos suite can crash and restart: a killed
// replica fails every operation (the ShardedDir observes the failure, fails
// the shard over to the survivors, and retries inside the same call, so the
// nodes above never see an error and the degraded count stays untouched); a
// restarted replica comes back EMPTY — a crash loses directory state — and
// is repopulated organically: once the ShardedDir re-probes it after one
// FailoverTTL, its empty membership table rejects the next heartbeat, which
// sends every node down the re-register + reconcile path it already uses
// for lease lapses.

// errDirReplicaDown is what a crashed simulated replica answers.
var errDirReplicaDown = errors.New("icache: directory replica is down")

// replicaHolder wraps one simulated directory replica with a kill switch.
// The cluster drives it single-threaded on the virtual clock, so a plain
// bool suffices.
type replicaHolder struct {
	dir  *dkv.Directory
	down bool
}

// on runs op against the replica's directory, or fails as a crashed replica
// answers.
func on[T any](h *replicaHolder, op func(*dkv.Directory) T) (T, error) {
	if h.down {
		var none T
		return none, errDirReplicaDown
	}
	return op(h.dir), nil
}

func (h *replicaHolder) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	o, err := on(h, func(d *dkv.Directory) (o dkv.Owner) {
		o.Node, o.Found = d.Lookup(id)
		return o
	})
	return o.Node, o.Found, err
}

func (h *replicaHolder) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	return on(h, func(d *dkv.Directory) []dkv.Owner { return d.LookupBatch(ids) })
}

func (h *replicaHolder) Claim(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	return on(h, func(d *dkv.Directory) bool { return d.Claim(id, node) })
}

func (h *replicaHolder) Release(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	return on(h, func(d *dkv.Directory) bool { return d.Release(id, node) })
}

func (h *replicaHolder) Len() (int, error) {
	return on(h, (*dkv.Directory).Len)
}

func (h *replicaHolder) Register(node dkv.NodeID, ttl time.Duration) (dkv.NodeInfo, error) {
	return on(h, func(d *dkv.Directory) dkv.NodeInfo { return d.Register(node, ttl) })
}

func (h *replicaHolder) Heartbeat(node dkv.NodeID) (bool, error) {
	return on(h, func(d *dkv.Directory) bool { return d.HeartbeatNode(node) })
}

func (h *replicaHolder) ListNodes() ([]dkv.NodeInfo, error) {
	return on(h, (*dkv.Directory).ListNodes)
}

func (h *replicaHolder) OwnedBy(node dkv.NodeID, max int) ([]dataset.SampleID, error) {
	return on(h, func(d *dkv.Directory) []dataset.SampleID { return d.OwnedBy(node, max) })
}

func (h *replicaHolder) PurgeDead(max int) (int, error) {
	return on(h, func(d *dkv.Directory) int { return d.PurgeDead(max) })
}

// newReplicaDir builds one simulated directory (the only one, or a replica)
// on the cluster's virtual clock.
func (cl *Cluster) newReplicaDir() *dkv.Directory {
	d := dkv.NewDirectory()
	d.SetClock(func() simclock.Time { return cl.vnow })
	d.SetMembershipParams(cl.cfg.LeaseTTL, cl.cfg.SuspectWindow)
	return d
}

// initShardedDir wires the cluster to DirReplicas simulated directory
// replicas behind a ShardedDir (called from NewCluster when DirReplicas >
// 1; cfg defaults are already applied).
func (cl *Cluster) initShardedDir() {
	cl.holders = make([]*replicaHolder, cl.cfg.DirReplicas)
	replicas := make(map[dkv.ReplicaID]dkv.Service, cl.cfg.DirReplicas)
	for r := range cl.holders {
		h := &replicaHolder{dir: cl.newReplicaDir()}
		cl.holders[r] = h
		cl.rawDirs = append(cl.rawDirs, h.dir)
		replicas[dkv.ReplicaID(r)] = h
	}
	cl.sharded = dkv.NewShardedDir(replicas, dkv.ShardedConfig{
		FailoverTTL: cl.cfg.LeaseTTL,
		Clock:       func() simclock.Time { return cl.vnow },
	})
	cl.base = cl.sharded
}

// DirReplicaAlive reports whether simulated directory replica r is up.
func (cl *Cluster) DirReplicaAlive(r int) bool {
	cl.checkReplica(r)
	return !cl.holders[r].down
}

// KillDirReplica crashes simulated directory replica r at virtual time at:
// every subsequent operation routed to it fails until RestartDirReplica.
// Killing a dead replica is a no-op. Only valid with DirReplicas > 1.
func (cl *Cluster) KillDirReplica(r int, at simclock.Time) {
	cl.checkReplica(r)
	cl.clock(at)
	cl.holders[r].down = true
}

// RestartDirReplica boots crashed replica r at virtual time at with EMPTY
// state — a directory crash loses the shard map and the membership table.
// The ShardedDir re-admits the replica one FailoverTTL after it marked it
// down, and the nodes' own lease machinery repopulates it: the revived
// replica rejects their next heartbeat (no leases), forcing re-register +
// reconcile, which re-claims every resident through the ring — claims for
// this replica's shards land here. Restarting a live replica is an error.
func (cl *Cluster) RestartDirReplica(r int, at simclock.Time) error {
	cl.checkReplica(r)
	h := cl.holders[r]
	if !h.down {
		return fmt.Errorf("icache: RestartDirReplica(%d): replica is already running", r)
	}
	cl.clock(at)
	h.dir = cl.newReplicaDir()
	cl.rawDirs[r] = h.dir
	h.down = false
	return nil
}

// DirRing reports the sharded directory client's ring counters; ok is
// false when the cluster runs a single (unsharded) directory.
func (cl *Cluster) DirRing() (dkv.RingStats, bool) {
	if cl.sharded == nil {
		return dkv.RingStats{}, false
	}
	return cl.sharded.Ring(), true
}

func (cl *Cluster) checkReplica(r int) {
	if cl.sharded == nil {
		panic("icache: directory replica ops need ClusterConfig.DirReplicas > 1")
	}
	if r < 0 || r >= len(cl.holders) {
		panic(fmt.Sprintf("icache: directory replica %d out of range [0,%d)", r, len(cl.holders)))
	}
}
