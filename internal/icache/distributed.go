package icache

import (
	"fmt"
	"math/rand"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
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
	// PeerLatency is the fixed cost of a remote-cache RPC between nodes.
	PeerLatency time.Duration
	// PeerBandwidth is inter-node bandwidth in bytes/sec.
	PeerBandwidth float64

	// LeaseTTL is each node's membership lease duration in the directory.
	// Zero selects dkv.DefaultLeaseTTL.
	LeaseTTL time.Duration
	// HeartbeatInterval is how often (virtual time) each node renews its
	// lease. Zero selects LeaseTTL/4, so a healthy node renews several
	// times per TTL.
	HeartbeatInterval time.Duration
	// SuspectWindow is how long past lease expiry a node stays routable
	// (Suspect) before it is declared Dead and its directory entries become
	// reclaimable. Zero selects LeaseTTL.
	SuspectWindow time.Duration
	// ScrubInterval is how often (virtual time) each node runs one bounded
	// anti-entropy sweep reconciling the directory against its cache
	// contents. Zero selects LeaseTTL/2.
	ScrubInterval time.Duration
	// ScrubBatch bounds the work of one scrub sweep (directory entries
	// examined per direction). Zero selects 256.
	ScrubBatch int

	// DirReplicas partitions the directory across this many simulated
	// replicas (sharded by sample ID via rendezvous hashing, fronted by a
	// dkv.ShardedDir — see dirshard.go). 0 or 1 keeps the legacy single
	// in-process directory.
	DirReplicas int
}

// DefaultClusterConfig mirrors the paper's cloud setup: per-node cache of
// the given size, 10 Gb/s interconnect.
func DefaultClusterConfig(nodes int, perNode int64) ClusterConfig {
	return ClusterConfig{
		Nodes:                nodes,
		PerNodeCapacityBytes: perNode,
		Cache:                DefaultConfig(perNode),
		PeerLatency:          200 * time.Microsecond,
		PeerBandwidth:        1.25e9,
	}
}

// Validate reports whether the config is usable.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("icache: cluster Nodes=%d, want > 0", c.Nodes)
	case c.PerNodeCapacityBytes <= 0:
		return fmt.Errorf("icache: PerNodeCapacityBytes=%d, want > 0", c.PerNodeCapacityBytes)
	case c.PeerLatency < 0:
		return fmt.Errorf("icache: negative PeerLatency")
	case c.PeerBandwidth <= 0:
		return fmt.Errorf("icache: PeerBandwidth=%g, want > 0", c.PeerBandwidth)
	case c.LeaseTTL < 0:
		return fmt.Errorf("icache: negative LeaseTTL")
	case c.HeartbeatInterval < 0:
		return fmt.Errorf("icache: negative HeartbeatInterval")
	case c.SuspectWindow < 0:
		return fmt.Errorf("icache: negative SuspectWindow")
	case c.ScrubInterval < 0:
		return fmt.Errorf("icache: negative ScrubInterval")
	case c.ScrubBatch < 0:
		return fmt.Errorf("icache: negative ScrubBatch")
	case c.DirReplicas < 0:
		return fmt.Errorf("icache: negative DirReplicas")
	}
	return nil
}

// clusterNode is one simulated node: the policy engine that ships, plus
// what rpc.Server puts around it — a NIC and the schedule of its membership
// loop.
type clusterNode struct {
	id  dkv.NodeID
	srv *Server
	nic simclock.Resource

	// alive is false between KillNode and RestartNode (srv is then the
	// empty cache of a process not yet booted). nextHeartbeat/nextScrub are
	// the node's two tickers on the virtual clock; scrubMark is the scrub
	// step's watermark.
	alive         bool
	nextHeartbeat simclock.Time
	nextScrub     simclock.Time
	scrubMark     int
}

// Cluster is the distributed iCache: per-node cache servers sharing a
// key-value directory so no item is cached twice, over a shared backend
// (the paper's NFS server). The training side drives it node by node with
// FetchBatchOn; data-parallel jobs share one importance tracker, so every
// node is handed the same H-list.
//
// A node is an icache.Server — Algorithm 1, the loader, tier 2 and the
// decision ledger are the single-node ones — joined to the cluster at three
// seams: its eviction observer and admission claims keep the directory's
// ownership exact, and the request it is about to send to the backend is
// offered to the owning peer first (Server.onMiss). Its membership is the
// lifecycle steps rpc.Server runs (dkv.Member), fired from the virtual
// clock (lifecycle.go).
//
// The cluster treats its remote dependencies as unreliable (§V's implicit
// assumption made explicit), the way rpc.Server does: a failed remote-cache
// read or directory lookup degrades that one request to a backend read, a
// failed claim means the copy is not kept, a release that did not reach the
// directory is left to the scrubber, and the next operation asks again.
// Every failure is counted (ResilienceStats), and requests served through a
// broken path land in CacheStats.Degraded, keeping the conservation
// invariant hits+misses+substitutions+degraded == requests exact under any
// fault schedule.
type Cluster struct {
	cfg     ClusterConfig
	backend *storage.Backend
	spec    dataset.Spec
	iis     sampling.IISConfig
	seed    int64
	nodes   []*clusterNode

	// dir is the directory the nodes reach: base, behind the fault
	// schedule when one is attached. base is the in-process directory, or
	// the sharded client over rawDirs (DirReplicas > 1; see dirshard.go:
	// holders are the replicas' kill switches).
	dir, base dkv.Service
	rawDirs   []*dkv.Directory
	holders   []*replicaHolder
	sharded   *dkv.ShardedDir

	// inj, when set, also decides remote-cache reads; see SetFaultInjector.
	inj *faults.Injector

	// retired is what crashed nodes' servers had counted.
	retired    metrics.CacheStats
	res        metrics.ResilienceStats
	mem        metrics.MembershipStats
	remoteHits int64

	// at is the virtual time of the operation in progress: eviction and
	// claim hooks receive no timestamp, and time-keyed fault rules read it.
	// vnow is its high-water mark; the directories' lease clocks read that,
	// so lease expiry is deterministic for a given drive sequence.
	at, vnow simclock.Time
}

// NewCluster builds a distributed iCache over a shared backend.
func NewCluster(backend *storage.Backend, cfg ClusterConfig, iis sampling.IISConfig, seed int64) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Cache.CapacityBytes = cfg.PerNodeCapacityBytes
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = dkv.DefaultLeaseTTL
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = cfg.LeaseTTL / 4
	}
	if cfg.SuspectWindow == 0 {
		cfg.SuspectWindow = cfg.LeaseTTL
	}
	if cfg.ScrubInterval == 0 {
		cfg.ScrubInterval = cfg.LeaseTTL / 2
	}
	if cfg.ScrubBatch == 0 {
		cfg.ScrubBatch = 256
	}
	cl := &Cluster{
		cfg:     cfg,
		backend: backend,
		spec:    backend.Spec(),
		iis:     iis,
		seed:    seed,
	}
	// The directories run on the cluster's virtual clock. With DirReplicas >
	// 1 there are N sharded replicas behind a ShardedDir, each tracking node
	// liveness independently for the shards it holds.
	if cfg.DirReplicas > 1 {
		cl.initShardedDir()
	} else {
		cl.rawDirs = []*dkv.Directory{cl.newReplicaDir()}
		cl.base = dkv.Local{Dir: cl.rawDirs[0]}
	}
	cl.dir = cl.base
	for n := 0; n < cfg.Nodes; n++ {
		node := &clusterNode{id: dkv.NodeID(n)}
		var err error
		if node.srv, err = cl.newNodeServer(node); err != nil {
			return nil, err
		}
		cl.nodes = append(cl.nodes, node)
		cl.boot(node, 0)
	}
	return cl, nil
}

// newNodeServer builds the policy engine of node n's next process.
func (cl *Cluster) newNodeServer(n *clusterNode) (*Server, error) {
	return NewServer(cl.backend, cl.cfg.Cache, cl.iis, cl.seed+int64(n.id)*7)
}

// boot joins node n's server — fresh, or restored from a checkpoint — to
// the cluster at virtual time at: the three seams, then the path
// icache-server boots through, a lease and a claim per resident.
func (cl *Cluster) boot(n *clusterNode, at simclock.Time) {
	// A directory failure counts as a failed claim: unregistered ownership
	// would break the no-duplication invariant.
	claim := func(id dataset.SampleID) bool {
		claimed, err := cl.dir.Claim(id, n.id)
		cl.countDirFailure(err)
		return claimed
	}
	// A release that does not reach the directory is dropped; the stale
	// entry is the scrubber's to repair.
	release := func(id dataset.SampleID) {
		_, err := cl.dir.Release(id, n.id)
		cl.countDirFailure(err)
	}
	n.srv.claim, n.srv.release, n.srv.l.claim = claim, release, claim
	n.srv.SetEvictObserver(release)
	n.srv.onMiss = func(at simclock.Time, id dataset.SampleID) (simclock.Time, missOutcome) {
		return cl.askPeer(n, at, id)
	}
	n.alive = true
	n.scrubMark = 0
	n.nextHeartbeat = at + cl.cfg.HeartbeatInterval
	n.nextScrub = at + cl.cfg.ScrubInterval
	cl.noteStep(cl.member(n).Rejoin())
}

// member is node n's identity for the lifecycle steps.
func (cl *Cluster) member(n *clusterNode) dkv.Member {
	return dkv.Member{Dir: cl.dir, ID: n.id, TTL: cl.cfg.LeaseTTL, Cache: n.srv}
}

// noteStep books a finished lifecycle step as rpc.Server does: its counter
// delta, and the directory failure that cut it short. The next firing
// starts over.
func (cl *Cluster) noteStep(d metrics.MembershipStats, err error) {
	cl.mem.Add(d)
	cl.countDirFailure(err)
}

func (cl *Cluster) countDirFailure(err error) {
	if err != nil {
		cl.res.DirFailures++
	}
}

// SetFaultInjector attaches a chaos schedule, keyed on the virtual time of
// the operation in progress: every directory operation of every node passes
// through a faults.Dir (faults.OpDirLookup/Claim/Release/Register/
// Heartbeat/Scan), and the cluster itself decides remote-cache reads
// (faults.OpPeerRead). Pass nil to detach. Intended for the chaos suite;
// production deployments leave it unset.
func (cl *Cluster) SetFaultInjector(inj *faults.Injector) {
	cl.inj, cl.dir = inj, cl.base
	if inj != nil {
		fd := faults.WrapDir(cl.base, inj)
		fd.Clock = func() simclock.Time { return cl.at }
		cl.dir = fd
	}
}

// Name identifies the scheme in experiment output.
func (cl *Cluster) Name() string { return fmt.Sprintf("icache-%dnode", cl.cfg.Nodes) }

// Nodes reports the cluster size.
func (cl *Cluster) Nodes() int { return cl.cfg.Nodes }

// Stats reports cluster-wide cache counters.
func (cl *Cluster) Stats() metrics.CacheStats {
	st := cl.retired
	for _, n := range cl.nodes {
		st.Add(n.srv.Stats())
	}
	return st
}

// Resilience reports the cluster's fault-handling counters.
func (cl *Cluster) Resilience() metrics.ResilienceStats { return cl.res }

// SubstitutionSource declares the substitution severity class for the
// accuracy model.
func (cl *Cluster) SubstitutionSource() string { return cl.nodes[0].srv.SubstitutionSource() }

// RemoteHits reports requests served from a peer node's cache.
func (cl *Cluster) RemoteHits() int64 { return cl.remoteHits }

// DirectoryLen reports how many samples are registered in the shared
// key-value directory.
func (cl *Cluster) DirectoryLen() int {
	n, _ := cl.dir.Len()
	return n
}

// BeginEpoch draws the epoch schedule from the shared (data-parallel)
// tracker and crosses the epoch boundary on every live node with the fresh
// H-list, as a trainer does over the wire (UpdateImportance, BeginEpoch).
// The caller splits the schedule's batches across nodes.
func (cl *Cluster) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	sched, hl := sampling.IISSchedule(tr, cl.iis, rng)
	cl.clock(at)
	for _, n := range cl.nodes {
		if n.alive {
			n.srv.InstallHList(hl)
			n.srv.StartEpoch(at)
		}
	}
	if cl.cfg.Cache.Clairvoyant {
		cl.planSchedule(sched.Fetch)
	}
	return sched
}

// remoteRead charges the cost of pulling one sample from a peer's cache:
// the RPC latency plus the transfer over both NICs.
func (cl *Cluster) remoteRead(at simclock.Time, from, to int, size int) simclock.Time {
	transfer := time.Duration(float64(size) / cl.cfg.PeerBandwidth * float64(time.Second))
	_, end := cl.nodes[from].nic.Acquire(at+cl.cfg.PeerLatency, transfer)
	_, end = cl.nodes[to].nic.Acquire(end, transfer)
	return end
}

// askPeer is a node's Server.onMiss, §III-E's data flow after the local
// cache: the shared directory, then the owner's cache; what it leaves to the
// backend the node's server reads and claims.
func (cl *Cluster) askPeer(n *clusterNode, at simclock.Time, id dataset.SampleID) (simclock.Time, missOutcome) {
	owner, ok, err := cl.dir.Lookup(id)
	if err != nil {
		cl.res.DirFailures++ // the directory cannot say who holds it
		cl.res.DegradedReads++
		return at, missDegraded
	}
	if !ok || owner == n.id || !cl.nodes[owner].srv.servePeer(id) {
		return at, missBackend
	}
	var d faults.Decision
	if cl.inj != nil {
		d = cl.inj.DecideAt(faults.OpPeerRead, at)
	}
	if d.Action == faults.ActError || d.Action == faults.ActDrop {
		// The copy exists and its node is unreachable: degrade to a backend
		// read, never stall.
		cl.res.PeerFailures++
		cl.res.DegradedReads++
		return at, missDegraded
	}
	cl.remoteHits++
	return cl.remoteRead(at, int(owner), int(n.id), cl.spec.SampleBytes(id)) + d.Delay, missPeer
}

// FetchBatchOn simulates node's worker fetching a mini-batch starting at
// virtual time at. Before each request the node's membership work that has
// come due runs (lifecycle.go), interleaved with the foreground the same way
// for a given seed and drive sequence.
func (cl *Cluster) FetchBatchOn(node int, at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	n := cl.node(node)
	if !n.alive {
		panic(fmt.Sprintf("icache: FetchBatchOn on crashed node %d (RestartNode first)", node))
	}
	served := make([]dataset.SampleID, 0, len(ids))
	for i := range ids {
		cl.tick(n, at)
		at = n.srv.FetchBatchInto(at, ids[i:i+1], &served)
	}
	return at, served
}

// clock sets the virtual time of the operation in progress.
func (cl *Cluster) clock(at simclock.Time) {
	cl.at, cl.vnow = at, max(cl.vnow, at)
}

// node returns node i, panicking on an index out of range.
func (cl *Cluster) node(i int) *clusterNode {
	if i < 0 || i >= len(cl.nodes) {
		panic(fmt.Sprintf("icache: node %d out of range [0,%d)", i, len(cl.nodes)))
	}
	return cl.nodes[i]
}
