package rpc

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// distFixture is a two-node distributed deployment over loopback TCP: a
// directory service plus two cache nodes wired to it and to each other.
type distFixture struct {
	dirAddr string
	nodes   [2]*Server
	addrs   [2]string
	sources [2]*storage.DataSource
}

func startDistFixture(t *testing.T) *distFixture {
	return startDistFixtureHook(t, nil)
}

// startDistFixtureHook is startDistFixture with a per-node hook that runs
// after EnableDistributed and before Serve — mixed-version interop tests pin
// one node to the legacy wire protocol, tuning tests adjust peer configs.
func startDistFixtureHook(t *testing.T, hook func(n int, srv *Server)) *distFixture {
	t.Helper()
	spec := testSpec()

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	f := &distFixture{dirAddr: dirLn.Addr().String()}
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			t.Fatal(err)
		}
		cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), int64(n+5))
		if err != nil {
			t.Fatal(err)
		}
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.sources[n] = source
		f.nodes[n] = NewServer(cacheSrv, source)
		f.nodes[n].Logf = nil
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(f.dirAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): f.addrs[1-n]}
		f.nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		if hook != nil {
			hook(n, f.nodes[n])
		}
		go f.nodes[n].Serve(lns[n])
	}
	t.Cleanup(func() {
		f.nodes[0].Close()
		f.nodes[1].Close()
	})
	return f
}

func TestPeerServedWithoutBackendRead(t *testing.T) {
	f := startDistFixture(t)
	spec := testSpec()

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])

	// Make ids 0..9 H-samples on both nodes so delivery is exact.
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 10; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}

	// Node A fetches and claims the samples.
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	// Node B must now serve the same IDs from A's cache: its own backend
	// reads must not grow.
	before := f.sources[1].Reads()
	samples, err := cB.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if delta := f.sources[1].Reads() - before; delta != 0 {
		t.Fatalf("node B hit its backend %d times; want peer-served", delta)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("sample %d substituted", ids[i])
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("peer payload corrupt: %v", err)
		}
	}
	if served, _ := f.nodes[0].PeerStats(); served == 0 {
		t.Fatal("node A never served a peer request")
	}
	if _, hits := f.nodes[1].PeerStats(); hits == 0 {
		t.Fatal("node B recorded no peer hits")
	}
	// Peer bytes are forwarded, never kept: the reader's store holds none of
	// the ids its peer owns.
	for _, id := range ids {
		if f.nodes[1].payloads.has(id) {
			t.Fatalf("node B stored peer-served sample %d", id)
		}
	}
	requireStoreWithinResidents(t, f.nodes[1])
}

func TestNoDuplicatePayloadsAcrossNodes(t *testing.T) {
	f := startDistFixture(t)

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(20); id < 40; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	// No sample's payload may be stored on both nodes.
	aStored := make(map[dataset.SampleID]bool)
	for _, id := range f.nodes[0].payloads.ids() {
		aStored[id] = true
	}
	for _, id := range f.nodes[1].payloads.ids() {
		if aStored[id] {
			t.Fatalf("sample %d stored on both nodes", id)
		}
	}
}

func TestPeerGetMissIsNotAnError(t *testing.T) {
	f := startDistFixture(t)
	c := dial(t, f.addrs[0])
	res, err := c.PeerGetBatchDeadline([]dataset.SampleID{1999}, obs.TraceCtx{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != nil {
		t.Fatal("uncached sample reported found")
	}
}

func TestDistributedSurvivesDirectoryOutage(t *testing.T) {
	// If the directory connection dies, nodes must degrade to backend
	// fetches rather than failing requests.
	f := startDistFixture(t)
	c := dial(t, f.addrs[0])
	f.nodes[0].dist.dir.(*dkv.DirClient).Close()
	var ids []dataset.SampleID
	for id := dataset.SampleID(100); id < 110; id++ {
		ids = append(ids, id)
	}
	samples, err := c.GetBatch(ids)
	if err != nil {
		t.Fatalf("request failed during directory outage: %v", err)
	}
	if len(samples) != len(ids) {
		t.Fatalf("served %d of %d", len(samples), len(ids))
	}
}
