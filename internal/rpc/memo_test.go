package rpc

// The remembered owners (ownerMemo, peer.go): a node asks the directory about
// a sample once per generation, and each rule that forgets an answer — a peer
// answering absent, a failed chunk, a lost claim, a boundary crossed mid-lookup
// — is pinned here. Every test ends on the request ledger and store ⊆
// residents.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// memoPair is two distributed nodes over loopback, A (node 0) and B (node 1),
// on one in-process directory that counts lookups. A has no prefetch pool, so
// it admits nothing the test did not ask for; B has bWorkers prefetch workers.
type memoPair struct {
	a, b       *Server
	cA, cB     *Client
	dir        *countingDir
	srcA, srcB *storage.DataSource
}

// startMemoPair makes ids H-samples on both nodes and has A read owned, so A
// owns it.
func startMemoPair(t *testing.T, ids, owned []dataset.SampleID) *memoPair {
	t.Helper()
	p := &memoPair{dir: &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}}
	var srvs [2]*Server
	var srcs [2]*storage.DataSource
	var lns [2]net.Listener
	for n := range srvs {
		var err error
		if srcs[n], err = storage.NewDataSource(testSpec()); err != nil {
			t.Fatal(err)
		}
		srvs[n] = newUnstartedServer(t, srcs[n])
		lns[n] = listen(t)
	}
	for n, srv := range srvs {
		srv.EnableDistributed(dkv.NodeID(n), p.dir, map[dkv.NodeID]string{dkv.NodeID(1 - n): lns[1-n].Addr().String()})
		go srv.Serve(lns[n])
		t.Cleanup(func() { srv.Close() })
	}
	p.a, p.b, p.srcA, p.srcB = srvs[0], srvs[1], srcs[0], srcs[1]
	p.cA, p.cB = dial(t, lns[0].Addr().String()), dial(t, lns[1].Addr().String())
	for _, c := range []*Client{p.cA, p.cB} {
		if err := c.UpdateImportance(hItems(ids)); err != nil {
			t.Fatal(err)
		}
	}
	if len(owned) > 0 {
		readExact(t, p.cA, owned)
	}
	return p
}

func (p *memoPair) lookups() int64 { return atomic.LoadInt64(&p.dir.lookupBatches) }

// readExact reads ids through c and verifies every sample and its bytes.
func readExact(t *testing.T, c *Client, ids []dataset.SampleID) {
	t.Helper()
	got, err := c.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s.ID != ids[i] {
			t.Fatalf("slot %d carries sample %d, want %d", i, s.ID, ids[i])
		}
		if err := testSpec().VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

// requireConserved: every sample requested of srv since base landed in
// exactly one outcome class, and srv's store holds residents only.
func requireConserved(t *testing.T, srv *Server, base int64, requested int) {
	t.Helper()
	if got := cacheStats(srv).Requests() - base; got != int64(requested) {
		t.Errorf("outcome classes advanced by %d for %d requested samples", got, requested)
	}
	requireStoreWithinResidents(t, srv)
}

// hItems makes ids H-samples.
func hItems(ids []dataset.SampleID) []sampling.Item {
	items := make([]sampling.Item, len(ids))
	for i, id := range ids {
		items[i] = sampling.Item{ID: id, IV: 5}
	}
	return items
}

func idRange(lo, hi dataset.SampleID) []dataset.SampleID {
	ids := make([]dataset.SampleID, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// TestRepeatMissesAskTheDirectoryOncePerEpoch: four reads of 16 ids node A
// owns cost node B one LookupBatch in all, and one more after an epoch
// boundary; every sample is served from A's memory. Node B's only backend
// reads are the members of the one L-cache package its boundary composed.
func TestRepeatMissesAskTheDirectoryOncePerEpoch(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		ids := idRange(0, 16)
		p := startMemoPair(t, ids, ids)
		base, lb, reads0 := cacheStats(p.b).Requests(), p.lookups(), p.srcB.Reads()
		for epoch := 1; epoch <= 2; epoch++ {
			if epoch == 2 {
				if err := p.cB.BeginEpoch(1); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 4; round++ {
				readExact(t, p.cB, ids)
			}
			if got := p.lookups() - lb; got != int64(epoch) {
				t.Fatalf("epoch %d: %d LookupBatch calls in all for 4 reads a epoch, want %d", epoch, got, epoch)
			}
		}
		if _, hits := p.b.PeerStats(); hits != 8*16 {
			t.Errorf("%d peer hits, want all %d reads served by node A", hits, 8*16)
		}
		if got := p.b.dist.owners.routed.Load(); got != 6*16 {
			t.Errorf("%d ids routed without the directory, want %d", got, 6*16)
		}
		waitLoaded(t, p.b)
		n, members := p.srcB.Reads()-reads0, p.b.packageReads.Load()
		if v := engineView(p.b); n != members || v.Packages != 1 || p.b.DemandFetches() != 0 {
			t.Errorf("node B: %d backend reads, %d of them package members of %d packages, %d demand fetches; want only the one package's",
				n, members, v.Packages, p.b.DemandFetches())
		}
		requireConserved(t, p.b, base, 8*16)
	})
}

// TestOwnerEvictionCostsOnePeerMiss: node A evicts a sample node B remembers
// as A's. B's next read of it is one peer miss and one backend read with no
// directory call, and the miss after that asks the directory again.
func TestOwnerEvictionCostsOnePeerMiss(t *testing.T) {
	const x = dataset.SampleID(3)
	p := startMemoPair(t, []dataset.SampleID{x}, []dataset.SampleID{x})
	base := cacheStats(p.b).Requests()
	readExact(t, p.cB, []dataset.SampleID{x}) // remembered as A's
	if !(lockedResidents{p.a}).DropFor(x, dkv.DropScrub) || !p.dir.Dir.Release(x, 0) {
		t.Fatal("node A did not hold the sample")
	}

	lb, reads0, stale0 := p.lookups(), p.srcB.Reads(), p.b.dist.owners.stale.Load()
	rpcs0, _ := p.b.PeerBatchStats()
	_, hits0 := p.b.PeerStats()
	readExact(t, p.cB, []dataset.SampleID{x})
	rpcs, _ := p.b.PeerBatchStats()
	_, hits := p.b.PeerStats()
	if lb != p.lookups() || rpcs-rpcs0 != 1 || hits != hits0 || p.srcB.Reads()-reads0 != 1 {
		t.Fatalf("read after the eviction: %d lookups, %d peer RPCs, %d peer hits, %d backend reads; want 0, 1, 0, 1",
			p.lookups()-lb, rpcs-rpcs0, hits-hits0, p.srcB.Reads()-reads0)
	}
	if got := p.b.dist.owners.stale.Load() - stale0; got != 1 {
		t.Errorf("%d stale answers counted, want 1", got)
	}

	// B admitted the sample; once it is gone from B too, the next miss asks.
	if !(lockedResidents{p.b}).DropFor(x, dkv.DropScrub) || !p.dir.Dir.Release(x, 1) {
		t.Fatal("node B did not admit the sample it read from the backend")
	}
	readExact(t, p.cB, []dataset.SampleID{x})
	if got := p.lookups() - lb; got != 1 {
		t.Errorf("the miss after the peer miss made %d lookups, want 1", got)
	}
	requireConserved(t, p.b, base, 3)
	requireStoreWithinResidents(t, p.a)
}

// TestClaimLostAfterLookupForgetsTheAnswer: node B learns a sample is unowned,
// then node A claims it. B's next miss trusts the stale answer: one backend
// read and one lost claim. The miss after that is served by A.
func TestClaimLostAfterLookupForgetsTheAnswer(t *testing.T) {
	const x = dataset.SampleID(5)
	p := startMemoPair(t, []dataset.SampleID{x}, nil)
	if o := p.b.dirLookupBatch(p.b.dist, []dataset.SampleID{x}, obs.TraceCtx{}, time.Time{}); len(o) != 1 || o[0].Found {
		t.Fatalf("lookup before any claim: %+v", o)
	}
	readExact(t, p.cA, []dataset.SampleID{x}) // A claims it

	base, lb, reads0 := cacheStats(p.b).Requests(), p.lookups(), p.srcB.Reads()
	lost0, stale0 := p.b.DecisionStats().EvictDeadOwner, p.b.dist.owners.stale.Load()
	readExact(t, p.cB, []dataset.SampleID{x})
	if got := p.srcB.Reads() - reads0; got != 1 {
		t.Errorf("%d backend reads on the stale unowned answer, want 1", got)
	}
	if lost := p.b.DecisionStats().EvictDeadOwner - lost0; lost != 1 || p.b.payloads.has(x) {
		t.Errorf("%d lost claims, stored %v; want 1 and no copy on B", lost, p.b.payloads.has(x))
	}
	if got := p.b.dist.owners.stale.Load() - stale0; got != 1 || p.lookups() != lb {
		t.Errorf("%d stale answers and %d lookups, want 1 and 0", got, p.lookups()-lb)
	}

	_, hits0 := p.b.PeerStats()
	readExact(t, p.cB, []dataset.SampleID{x})
	if _, hits := p.b.PeerStats(); hits-hits0 != 1 || p.lookups()-lb != 1 || p.srcB.Reads()-reads0 != 1 {
		t.Errorf("next miss: %d peer hits, %d lookups, %d more backend reads; want 1, 1, 0",
			hits-hits0, p.lookups()-lb, p.srcB.Reads()-reads0-1)
	}
	requireConserved(t, p.b, base, 2)
	requireStoreWithinResidents(t, p.a)
}

// TestClosedPeerCostsOneFailedChunk: node A closes mid-epoch and the
// directory drops its entries (as the membership plane purges a dead node).
// The samples node B remembers as A's pay one failed chunk between them, not
// one per read, and the next boundary's prefetch ledger balances.
func TestClosedPeerCostsOneFailedChunk(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		ids := idRange(20, 36)
		p := startMemoPair(t, ids, ids)
		readExact(t, p.cB, ids) // remembered as A's
		p.a.Close()
		for _, id := range ids {
			p.dir.Dir.Release(id, 0)
		}

		base, reads0, stale0 := cacheStats(p.b).Requests(), p.srcB.Reads(), p.b.dist.owners.stale.Load()
		failures0, _ := p.b.ResilienceStats()
		for round := 0; round < 3; round++ {
			readExact(t, p.cB, ids)
		}
		if failures, _ := p.b.ResilienceStats(); failures-failures0 != 1 {
			t.Errorf("%d failed peer chunks for %d remembered ids read 3 times, want 1", failures-failures0, len(ids))
		}
		if got := p.b.dist.owners.stale.Load() - stale0; got != int64(len(ids)) {
			t.Errorf("%d stale answers counted, want %d", got, len(ids))
		}
		if got := p.srcB.Reads() - reads0; got != int64(len(ids)) {
			t.Errorf("%d backend reads, want %d: each sample once, then resident", got, len(ids))
		}
		crossBoundary(t, p.b, "after a peer closed", func() error { return p.cB.BeginEpoch(1) })
		requireConserved(t, p.b, base, 3*len(ids))
	})
}

// TestEveryGenerationPointForgets: an epoch boundary, a scrub sweep and a
// re-registration each leave no remembered answer behind.
func TestEveryGenerationPointForgets(t *testing.T) {
	srv := newUnstartedServer(t, nil)
	srv.EnableDistributed(0, dkv.Local{Dir: dkv.NewDirectory()}, nil)
	srv.dist.memCfg = MembershipConfig{}.withDefaults()
	c := dial(t, serveOn(t, srv))
	if err := c.UpdateImportance(hItems(idRange(60, 63))); err != nil {
		t.Fatal(err)
	}
	base := cacheStats(srv).Requests()
	for i, step := range []struct {
		name string
		run  func()
	}{
		{"boundary", func() { srv.crossEpoch(nil, false) }},
		{"scrub", srv.scrubOnce},
		{"re-registration", srv.registerAndReconcile},
	} {
		id := dataset.SampleID(60 + i)
		readExact(t, c, []dataset.SampleID{id})
		if _, ok := srv.dist.owners.owner(id); !ok {
			t.Fatalf("%s: the lookup's answer was not remembered", step.name)
		}
		step.run()
		if _, ok := srv.dist.owners.owner(id); ok {
			t.Errorf("%s: the answer outlived it", step.name)
		}
	}
	requireConserved(t, srv, base, 3)
}

// crossingDir is a countingDir that, armed, crosses an epoch boundary while
// a lookup is in flight.
type crossingDir struct {
	*countingDir
	armed atomic.Bool
	cross func()
}

func (d *crossingDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	if d.armed.Load() {
		d.cross()
	}
	return d.countingDir.LookupBatch(ids)
}

// TestLookupRacingABoundaryLeavesNoAnswer: answers asked for before a
// boundary and answered after it are dropped, not remembered in the new
// generation; a lookup that crosses nothing is remembered.
func TestLookupRacingABoundaryLeavesNoAnswer(t *testing.T) {
	srv := newUnstartedServer(t, nil)
	dir := &crossingDir{countingDir: &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}}
	dir.cross = func() { srv.crossEpoch(nil, false) }
	srv.EnableDistributed(0, dir, nil)
	c := dial(t, serveOn(t, srv))
	ids := idRange(40, 52)
	if err := c.UpdateImportance(hItems(ids)); err != nil {
		t.Fatal(err)
	}
	base := cacheStats(srv).Requests()
	remembered := func(ids []dataset.SampleID) (n int) {
		for _, id := range ids {
			if _, ok := srv.dist.owners.owner(id); ok {
				n++
			}
		}
		return n
	}

	readExact(t, c, ids[:4])
	if n := remembered(ids[:4]); n != 4 {
		t.Fatalf("%d of 4 answers remembered after a quiet lookup", n)
	}
	dir.armed.Store(true)
	readExact(t, c, ids[4:8])
	dir.armed.Store(false)
	if n := remembered(ids[:8]); n != 0 {
		t.Fatalf("%d answers remembered across the boundary, want 0", n)
	}
	readExact(t, c, ids[8:])
	if n := remembered(ids[8:]); n != 4 {
		t.Fatalf("%d of 4 answers remembered in the new generation", n)
	}
	requireConserved(t, srv, base, len(ids))
}
