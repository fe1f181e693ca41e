package icache

import (
	"fmt"
	"math/rand"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// ClusterConfig parameterizes the distributed iCache of §III-E.
type ClusterConfig struct {
	// Nodes is the number of training/cache nodes.
	Nodes int
	// PerNodeCapacityBytes is each node's cache budget.
	PerNodeCapacityBytes int64
	// Cache configures each node's H-/L-cache behaviour (CapacityBytes is
	// overridden by PerNodeCapacityBytes).
	Cache Config
}

// The paper's cloud interconnect: peerLatency is the fixed cost of a
// remote-cache RPC between nodes, peerBandwidth the 10 Gb/s link in
// bytes/sec.
const (
	peerLatency   = 200 * time.Microsecond
	peerBandwidth = 1.25e9
)

// DefaultClusterConfig mirrors the paper's cloud setup: per-node cache of
// the given size.
func DefaultClusterConfig(nodes int, perNode int64) ClusterConfig {
	return ClusterConfig{
		Nodes:                nodes,
		PerNodeCapacityBytes: perNode,
		Cache:                DefaultConfig(perNode),
	}
}

// Validate reports whether the config is usable.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("icache: cluster Nodes=%d, want > 0", c.Nodes)
	case c.PerNodeCapacityBytes <= 0:
		return fmt.Errorf("icache: PerNodeCapacityBytes=%d, want > 0", c.PerNodeCapacityBytes)
	}
	return nil
}

// clusterNode is one simulated node: the policy engine that ships, plus the
// NIC rpc.Server's peer reads cross.
type clusterNode struct {
	id  dkv.NodeID
	srv *Server
	nic simclock.Resource
}

// Cluster is the distributed iCache: per-node cache servers sharing a
// key-value directory so no item is cached twice, over a shared backend
// (the paper's NFS server). The training side drives it node by node with
// FetchBatchOn; data-parallel jobs share one importance tracker, so every
// node is handed the same H-list.
//
// A node is an icache.Server — Algorithm 1, the loader and the
// decision ledger are the single-node ones — joined to the cluster at three
// seams: its eviction observer and admission claims keep the directory's
// ownership exact, and the request it is about to send to the backend is
// offered to the owning peer first (Server.onMiss), at the cost of the
// interconnect. The directory is one in-process dkv.Directory that never
// fails. Faults, leases and node churn are tested on the shipped stack —
// rpc.Server and dkv.DirServer on a virtual clock (internal/rpc's
// cluster_test.go) — not here.
type Cluster struct {
	cfg        ClusterConfig
	spec       dataset.Spec
	iis        sampling.IISConfig
	nodes      []*clusterNode
	dir        *dkv.Directory
	remoteHits int64
}

// NewCluster builds a distributed iCache over a shared backend.
func NewCluster(backend *storage.Backend, cfg ClusterConfig, iis sampling.IISConfig, seed int64) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Cache.CapacityBytes = cfg.PerNodeCapacityBytes
	cl := &Cluster{
		cfg:  cfg,
		spec: backend.Spec(),
		iis:  iis,
		dir:  dkv.NewDirectory(),
	}
	for n := 0; n < cfg.Nodes; n++ {
		node := &clusterNode{id: dkv.NodeID(n)}
		var err error
		if node.srv, err = NewServer(backend, cfg.Cache, iis, seed+int64(n)*7); err != nil {
			return nil, err
		}
		claim := func(id dataset.SampleID) bool { return cl.dir.Claim(id, node.id) }
		release := func(id dataset.SampleID) { cl.dir.Release(id, node.id) }
		node.srv.claim, node.srv.release, node.srv.l.claim = claim, release, claim
		node.srv.SetEvictObserver(release)
		node.srv.onMiss = func(at simclock.Time, id dataset.SampleID) (simclock.Time, bool) {
			return cl.askPeer(node, at, id)
		}
		cl.nodes = append(cl.nodes, node)
	}
	return cl, nil
}

// Name identifies the scheme in experiment output.
func (cl *Cluster) Name() string { return fmt.Sprintf("icache-%dnode", cl.cfg.Nodes) }

// Nodes reports the cluster size.
func (cl *Cluster) Nodes() int { return cl.cfg.Nodes }

// Stats reports cluster-wide cache counters.
func (cl *Cluster) Stats() metrics.CacheStats {
	var st metrics.CacheStats
	for _, n := range cl.nodes {
		st.Add(n.srv.Stats())
	}
	return st
}

// SubstitutionSource declares the substitution severity class for the
// accuracy model.
func (cl *Cluster) SubstitutionSource() string { return cl.nodes[0].srv.SubstitutionSource() }

// RemoteHits reports requests served from a peer node's cache.
func (cl *Cluster) RemoteHits() int64 { return cl.remoteHits }

// DirectoryLen reports how many samples are registered in the shared
// key-value directory.
func (cl *Cluster) DirectoryLen() int { return cl.dir.Len() }

// BeginEpoch draws the epoch schedule from the shared (data-parallel)
// tracker and crosses the epoch boundary on every node with the fresh
// H-list, as a trainer does over the wire (UpdateImportance, BeginEpoch).
// The caller splits the schedule's batches across nodes.
func (cl *Cluster) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	sched, hl := sampling.IISSchedule(tr, cl.iis, rng)
	for _, n := range cl.nodes {
		n.srv.InstallHList(hl)
		n.srv.StartEpoch(at)
	}
	return sched
}

// remoteRead charges the cost of pulling one sample from a peer's cache:
// the RPC latency plus the transfer over both NICs.
func (cl *Cluster) remoteRead(at simclock.Time, from, to int, size int) simclock.Time {
	transfer := time.Duration(float64(size) / peerBandwidth * float64(time.Second))
	_, end := cl.nodes[from].nic.Acquire(at+peerLatency, transfer)
	_, end = cl.nodes[to].nic.Acquire(end, transfer)
	return end
}

// askPeer is a node's Server.onMiss, §III-E's data flow after the local
// cache: the shared directory, then the owner's cache; what it leaves to the
// backend (ok false) the node's server reads and claims.
func (cl *Cluster) askPeer(n *clusterNode, at simclock.Time, id dataset.SampleID) (end simclock.Time, ok bool) {
	owner, found := cl.dir.Lookup(id)
	if !found || owner == n.id || !cl.nodes[owner].srv.servePeer(id) {
		return at, false
	}
	cl.remoteHits++
	return cl.remoteRead(at, int(owner), int(n.id), cl.spec.SampleBytes(id)), true
}

// FetchBatchOn simulates node's worker fetching a mini-batch starting at
// virtual time at, one sample after another.
func (cl *Cluster) FetchBatchOn(node int, at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	if node < 0 || node >= len(cl.nodes) {
		panic(fmt.Sprintf("icache: node %d out of range [0,%d)", node, len(cl.nodes)))
	}
	return cl.nodes[node].srv.FetchBatch(at, ids)
}
