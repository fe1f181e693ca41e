package rpc

import (
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
	"icache/internal/vt"
)

// distFixture is a two-node distributed deployment on test listeners
// (listen): a directory service plus two cache nodes wired to it and to
// each other.
type distFixture struct {
	dirAddr string
	nodes   [2]*Server
	addrs   [2]string
	sources [2]*storage.DataSource
}

func startDistFixture(t testing.TB) *distFixture {
	return startDistFixtureHook(t, nil)
}

// startDistFixtureHook is startDistFixture with a per-node hook that runs
// after EnableDistributed and before Serve — mixed-version interop tests pin
// one node to the legacy wire protocol, tuning tests adjust peer configs.
func startDistFixtureHook(t testing.TB, hook func(n int, srv *Server)) *distFixture {
	t.Helper()
	spec := testSpec()

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn := listen(t)
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	f := &distFixture{dirAddr: dirLn.Addr().String()}
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.sources[n] = source
		f.nodes[n] = newSeededServer(t, int64(n+5), source)
		lns[n] = listen(t)
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
	res, _, err := c.PeerGetBatchDeadline([]dataset.SampleID{1999}, obs.TraceCtx{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != nil {
		t.Fatal("uncached sample reported found")
	}
}

// TestRecycledPeerBufferIsNeverShared: node B hands a peer's answer back to
// the pool once the request that fetched it has written its response, so no
// other request may still be reading those bytes. Two clients read the same
// peer-owned ids through B in step — they join each other's flights, and the
// batch names one id twice, so a request joins its own — while a third reads
// others, for enough rounds that every buffer is reused many times; every
// payload of every response must verify byte-for-byte (a payload starts with
// its id, so a response framed from a reused buffer cannot pass).
func TestRecycledPeerBufferIsNeverShared(t *testing.T) {
	f := startDistFixture(t)
	spec := testSpec()
	const owned = 96 // node A owns 0..95: the pair reads 0..31, the third client the rest
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < owned; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	cA := dial(t, f.addrs[0])
	clients := []*Client{dial(t, f.addrs[1]), dial(t, f.addrs[1]), dial(t, f.addrs[1])}
	for _, c := range []*Client{cA, clients[0]} {
		if err := c.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	reads0 := f.sources[1].Reads()

	const rounds, batch = 300, 16
	step := make(chan struct{}) // the pair meets here before every round
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			lo, n, seed := 0, 32, int64(1) // the pair draws the same ids from the same seed
			if i == 2 {
				lo, n, seed = 32, owned-32, 2
			}
			rng := rand.New(rand.NewSource(seed))
			want := make([]dataset.SampleID, batch)
			for r := 0; r < rounds; r++ {
				for j := range want {
					want[j] = dataset.SampleID(lo + rng.Intn(n))
				}
				want[batch-1] = want[0]
				switch i {
				case 0:
					step <- struct{}{}
				case 1:
					<-step
				}
				got, err := c.GetBatch(want)
				if err != nil {
					t.Error(err) // and on to the next round: the other half of the pair is waiting
				}
				for j, s := range got {
					if s.ID != want[j] {
						t.Errorf("client %d round %d: slot %d carries sample %d, want %d", i, r, j, s.ID, want[j])
					} else if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
						t.Errorf("client %d round %d: %v", i, r, err)
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	if n := f.sources[1].Reads() - reads0; n != 0 {
		t.Errorf("%d backend reads on node B: the batches were not served from node A's memory", n)
	}
	if f.nodes[1].CoalescedMisses() == 0 {
		t.Error("no request joined another's flight: the shared-answer case was never exercised")
	}
}

// TestScatterServesASecondOwnerBesideTheFirst: misses with two owners cost two
// peer RPCs, one on the request's goroutine and one beside it, whose fallback
// keys and answer buffers meet in the request's scratch. Node A answers under
// two node ids here, so a two-node fixture has a second owner.
func TestScatterServesASecondOwnerBesideTheFirst(t *testing.T) {
	dir := dkv.Local{Dir: dkv.NewDirectory()}
	f := startDistFixtureHook(t, func(n int, srv *Server) {
		srv.dist.dir, srv.dist.dirCtx = dir, nil
		if n == 1 {
			srv.dist.peerAddrs[2] = srv.dist.peerAddrs[0]
		}
	})
	spec := testSpec()
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 16; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	cA, cB := dial(t, f.addrs[0]), dial(t, f.addrs[1])
	for _, c := range []*Client{cA, cB} {
		if err := c.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[8:] { // the directory now names a second owner for half
		if !dir.Dir.Release(id, 0) || !dir.Dir.Claim(id, 2) {
			t.Fatalf("could not hand sample %d to node 2", id)
		}
	}
	// Sample 15 is with neither owner any more: its chunk's one peer miss
	// must reach the backend gather from the second owner's goroutine.
	f.nodes[0].payloads.delete(15)

	rpcs0, _ := f.nodes[1].PeerBatchStats()
	reads0 := f.sources[1].Reads()
	for round := 0; round < 50; round++ {
		got, err := cB.GetBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			if s.ID != ids[i] {
				t.Fatalf("slot %d carries sample %d, want %d", i, s.ID, ids[i])
			}
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			if rpcs, _ := f.nodes[1].PeerBatchStats(); rpcs-rpcs0 != 2 {
				t.Fatalf("%d peer RPCs for misses with two owners, want 2", rpcs-rpcs0)
			}
			if n := f.sources[1].Reads() - reads0; n != 1 {
				t.Fatalf("%d backend reads on node B, want the one sample neither owner had", n)
			}
		}
	}
}

// remoteReadSetup is the shape TestRemoteReadAllocBound and
// BenchmarkRemoteReadPath share: one 16-id batch through node B of a two-node
// deployment on an in-process directory that counts lookups, 12 ids owned by
// node A — a live peer over loopback — and 4 resident on B. It returns B, the
// request frame and the directory.
func remoteReadSetup(tb testing.TB) (*Server, []byte, *countingDir) {
	dir := &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}
	f := startDistFixtureHook(tb, func(_ int, srv *Server) { srv.dist.dir, srv.dist.dirCtx = dir, nil })
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 16; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	for n, own := range [][]dataset.SampleID{ids[:12], ids[12:]} {
		c := dial(tb, f.addrs[n])
		if err := c.UpdateImportance(items); err != nil {
			tb.Fatal(err)
		}
		if _, err := c.GetBatch(own); err != nil {
			tb.Fatal(err)
		}
	}
	return f.nodes[1], encodeGetBatchRequest(ids), dir
}

// serveRemoteRead returns one remote-read batch through srv, with the owners
// srv remembers forgotten first unless warm: a cold batch asks the directory,
// a warm one routes by the answer it remembers.
func serveRemoteRead(tb testing.TB, srv *Server, req []byte, warm bool) func() {
	serve := serveFrom(tb, srv, req)
	return func() {
		if !warm {
			srv.dist.owners.forgetAll()
		}
		serve()
	}
}

// TestRemoteReadAllocBound states what a remote read costs in allocations,
// process-wide: node B's request path, its peer client, node A's answer. What
// is left is per-sample or per-call state that outlives no request — twelve
// singleflight calls, the directory's answer, the peer call's decoded slice,
// request encoder, reader and timeout timer — not buffers, stacks or
// per-request working sets; the parent commit reads 54 here. Remembering the
// owners allocates nothing: a cold batch, which asks the directory and records
// its answer, keeps the bound, and a warm one asks nothing.
func TestRemoteReadAllocBound(t *testing.T) {
	srv, req, dir := remoteReadSetup(t)
	for _, warm := range []bool{false, true} {
		serve := serveRemoteRead(t, srv, req, warm)
		rpcs0, _ := srv.PeerBatchStats()
		lb0 := atomic.LoadInt64(&dir.lookupBatches)
		const runs, bound = 200, 30
		allocs := testing.AllocsPerRun(runs, serve)
		if rpcs, carried := srv.PeerBatchStats(); rpcs-rpcs0 != runs+1 || carried < 12*(runs+1) {
			t.Fatalf("%d peer RPCs carrying %d samples over %d batches, want one of 12 per batch", rpcs-rpcs0, carried, runs+1)
		}
		want := int64(runs + 1)
		if warm {
			want = 0
		}
		if lb := atomic.LoadInt64(&dir.lookupBatches) - lb0; lb != want {
			t.Fatalf("warm=%v: %d directory lookups over %d batches, want %d", warm, lb, runs+1, want)
		}
		t.Logf("warm=%v: %v allocs per 16-id batch with 12 ids read from a peer", warm, allocs)
		if allocs > bound && !raceBuild() {
			t.Errorf("warm=%v: %v allocs per remote-read batch, want at most %d", warm, allocs, bound)
		}
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

// TestEvictionStormSharesOneReleaseWorker: with every Release the first hour
// makes stalled for an hour, an eviction storm parks one goroutine on the
// directory, not one per eviction. The payload store still holds residents
// only, and once the stall is over and the queue drained one scrub sweep
// leaves the directory crediting the node exactly what it caches. The storm
// moves no clock (nothing in it sleeps), so it runs inside the stall.
func TestEvictionStormSharesOneReleaseWorker(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		const evictions = 10000
		start := time.Now()
		dir := dkv.NewDirectory()
		fd := faults.WrapDir(dkv.Local{Dir: dir}, faults.New(1).Add(
			faults.Rule{Op: faults.OpDirRelease, UntilTime: simclock.Time(time.Hour), Delay: time.Hour}))
		srv := newUnstartedServer(t, nil)
		srv.EnableDistributed(0, fd, nil)
		srv.dist.memCfg = MembershipConfig{ScrubBatch: testSpec().NumSamples}.withDefaults()
		c := dial(t, serveOn(t, srv))
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		vt.Wait()
		idle := runtime.NumGoroutine()

		// Each pass rotates the importance order and reads the dataset in it,
		// least important first, so the full H-cache keeps evicting.
		n := dataset.SampleID(testSpec().NumSamples)
		items := make([]sampling.Item, n)
		ids := make([]dataset.SampleID, n)
		for pass := 0; cacheStats(srv).Evictions < evictions; pass++ {
			if pass == 40 {
				t.Fatalf("only %d evictions after %d passes", cacheStats(srv).Evictions, pass)
			}
			for i := range ids {
				ids[i] = (dataset.SampleID(i) + dataset.SampleID(pass)*n/5) % n
				items[i] = sampling.Item{ID: ids[i], IV: 1 + float64(i)/float64(n)}
			}
			if err := c.UpdateImportance(items); err != nil {
				t.Fatal(err)
			}
			for at := 0; at < len(ids); at += 250 {
				if _, err := c.GetBatch(ids[at : at+250]); err != nil {
					t.Fatal(err)
				}
			}
		}

		// A request's gather workers have exited and the release worker
		// sleeps; the connection may keep a dispatch worker or two more
		// resident than before the storm.
		vt.Wait()
		if n := runtime.NumGoroutine(); n > idle+4 {
			t.Fatalf("%d goroutines after the storm, %d before it", n, idle)
		}
		if time.Since(start) != 0 {
			t.Fatalf("the storm took %v of the bubble's clock, want none", time.Since(start))
		}
		requireStoreWithinResidents(t, srv)

		time.Sleep(time.Hour) // the stalled release ends; the rest find no stall
		vt.Wait()
		if n := len(srv.dist.releases); n != 0 {
			t.Fatalf("%d releases still queued after the stall", n)
		}
		srv.scrubOnce()
		if owned, cached := dir.OwnedBy(0, 0), (lockedResidents{srv}).Residents(nil); !slices.Equal(owned, cached) {
			t.Fatalf("directory credits the node with %d samples, it caches %d", len(owned), len(cached))
		}
	})
}

// TestReleaseBeyondTheQueueIsCounted: the eviction hook never blocks — a
// release that finds the worker's queue full is given up and counted as a
// directory failure (the scrubber repairs it).
func TestReleaseBeyondTheQueueIsCounted(t *testing.T) {
	srv := &Server{dist: &distState{releases: make(chan dataset.SampleID, 1)}} // no worker: nothing drains
	srv.releaseOwnership(1)
	srv.releaseOwnership(2)
	if _, dirFailures := srv.ResilienceStats(); dirFailures != 1 || len(srv.dist.releases) != 1 {
		t.Fatalf("two releases into a one-slot queue: %d counted, %d queued; want 1 and 1", dirFailures, len(srv.dist.releases))
	}
}
