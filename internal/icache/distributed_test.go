package icache

import (
	"math/rand"
	"testing"

	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

func testCluster(t *testing.T, nodes int) (*Cluster, *storage.Backend) {
	t.Helper()
	back, err := storage.NewBackend(testSpec(), storage.NFS())
	if err != nil {
		t.Fatal(err)
	}
	perNode := back.Spec().TotalBytes() / 5
	cl, err := NewCluster(back, DefaultClusterConfig(nodes, perNode), sampling.DefaultIIS(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return cl, back
}

func TestClusterConfigValidate(t *testing.T) {
	if err := DefaultClusterConfig(2, 1<<20).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	// A zero Cache config is valid (NewCluster sizes it).
	if err := (ClusterConfig{Nodes: 2, PerNodeCapacityBytes: 1 << 20}).Validate(); err != nil {
		t.Fatalf("zero-value Cache invalid: %v", err)
	}
	bad := DefaultClusterConfig(0, 1<<20)
	if err := bad.Validate(); err == nil {
		t.Error("Nodes=0 accepted")
	}
	bad = DefaultClusterConfig(2, 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero per-node capacity accepted")
	}
}

// runClusterEpoch splits the schedule's batches across nodes in lockstep,
// the way data-parallel training consumes shards.
func runClusterEpoch(t *testing.T, cl *Cluster, tr *sampling.Tracker, epoch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := cl.BeginEpoch(0, epoch, tr, rng)
	batches := sched.Batches(128)
	ats := make([]simclock.Time, cl.Nodes())
	for i, batch := range batches {
		node := i % cl.Nodes()
		end, served := cl.FetchBatchOn(node, ats[node], batch)
		if len(served) != len(batch) {
			t.Fatalf("served %d of %d", len(served), len(batch))
		}
		ats[node] = end
	}
}

func TestClusterNoDuplicateOwnership(t *testing.T) {
	cl, _ := testCluster(t, 2)
	tr := trainedTracker(t, cl.spec.NumSamples, 7)
	for e := 0; e < 3; e++ {
		runClusterEpoch(t, cl, tr, e, int64(e))
	}
	// Every H-cache resident on every node must be directory-owned by that
	// node and by no other node.
	for n, node := range cl.nodes {
		for id := range node.srv.h.items {
			owner, ok := cl.dir.Lookup(id)
			if !ok {
				t.Fatalf("node %d caches H-sample %d with no directory entry", n, id)
			}
			if int(owner) != n {
				t.Fatalf("node %d caches H-sample %d owned by node %d", n, id, owner)
			}
		}
	}
	// No sample may be resident on two nodes.
	seen := map[int64]int{}
	for n, node := range cl.nodes {
		for id := range node.srv.h.items {
			if prev, dup := seen[int64(id)]; dup {
				t.Fatalf("sample %d cached on nodes %d and %d", id, prev, n)
			}
			seen[int64(id)] = n
		}
		for id := range node.srv.l.items {
			if prev, dup := seen[int64(id)]; dup {
				t.Fatalf("L-sample %d cached on nodes %d and %d", id, prev, n)
			}
			seen[int64(id)] = n
		}
	}
}

func TestClusterRemoteHits(t *testing.T) {
	cl, _ := testCluster(t, 2)
	tr := trainedTracker(t, cl.spec.NumSamples, 8)
	for e := 0; e < 3; e++ {
		runClusterEpoch(t, cl, tr, e, int64(10+e))
	}
	if cl.RemoteHits() == 0 {
		t.Fatal("two nodes sharing a working set produced zero remote hits")
	}
	if cl.DirectoryLen() == 0 {
		t.Fatal("directory empty after training")
	}
}

func TestClusterJointCacheBeatsOneNode(t *testing.T) {
	// With the same per-node capacity, more nodes hold more distinct
	// samples, so the joint hit ratio must improve.
	tr1 := trainedTracker(t, testSpec().NumSamples, 9)
	tr4 := trainedTracker(t, testSpec().NumSamples, 9)

	cl1, _ := testCluster(t, 1)
	cl4, _ := testCluster(t, 4)
	for e := 0; e < 3; e++ {
		runClusterEpoch(t, cl1, tr1, e, int64(e))
		runClusterEpoch(t, cl4, tr4, e, int64(e))
	}
	if h1, h4 := cl1.Stats().HitRatio(), cl4.Stats().HitRatio(); h4 <= h1 {
		t.Fatalf("4-node hit ratio %.3f not better than 1-node %.3f", h4, h1)
	}
}

func TestClusterRemoteReadCostsMoreThanLocal(t *testing.T) {
	cl, _ := testCluster(t, 2)
	local := storage.HitLatency
	end := cl.remoteRead(0, 0, 1, 4096)
	if end <= local {
		t.Fatalf("remote read (%v) not more expensive than local hit (%v)", end, local)
	}
}

func TestClusterBadNodePanics(t *testing.T) {
	cl, _ := testCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("FetchBatchOn with bad node did not panic")
		}
	}()
	cl.FetchBatchOn(5, 0, nil)
}
