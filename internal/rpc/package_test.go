package rpc

// Tests for the L-cache's packages on the wire: the policy engine composes a
// package, the prefetch pool reads its members, and one policyMu hold lands
// bytes and L-residency together and composes the next package while the
// L-cache has room. So an L-resident always has its bytes, a substitute is a
// memory read, the loader runs back to back with one package in flight,
// Brownout holds loading, Close leaves nothing running, and a member another
// node owns is neither cached nor left claimed.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/overload"
	"icache/internal/sampling"
	"icache/internal/vt"
)

// waitLoaded waits for a bubble's quiet point, at which every package member
// read that does not sleep has landed, and fails if a package is still in
// flight there.
func waitLoaded(t testing.TB, srv *Server) {
	t.Helper()
	vt.Wait()
	if engineView(srv).Loading {
		t.Fatal("the package in flight was not delivered at a quiet point")
	}
}

// lResidents lists the engine's L-cache residents: with an H-list the test
// never changes, they are the residents off the H-list (an L-sample enters
// the H-cache only by joining the H-list). Caller holds policyMu.
func lResidents(srv *Server) []dataset.SampleID {
	hl := srv.cache.ActiveHList()
	var out []dataset.SampleID
	for _, id := range srv.cache.Residents(nil) {
		if !hl.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// requireLResidentsStored checks, under policyMu, that every L-resident has
// its bytes in the payload store and that the store holds residents only.
func requireLResidentsStored(t *testing.T, srv *Server) {
	t.Helper()
	srv.policyMu.Lock()
	for _, id := range lResidents(srv) {
		if !srv.payloads.has(id) {
			t.Errorf("L-resident %d has no bytes in the payload store", id)
		}
	}
	srv.policyMu.Unlock()
	requireStoreWithinResidents(t, srv)
}

// requireLCacheFull checks that the loader stopped because the L-cache has no
// room for another package, at a quiet point where no L-resident has served
// yet: its unused residents leave less than one package of the region free.
// The test cache's L region is under two 1 MB packages, so NewServer sizes a
// package at half of it.
func requireLCacheFull(t *testing.T, srv *Server) {
	t.Helper()
	cfg := icache.DefaultConfig(testSpec().TotalBytes() / 5)
	lBytes := cfg.CapacityBytes - int64(float64(cfg.CapacityBytes)*icache.InitialHShare)
	srv.policyMu.Lock()
	var unused int64
	for _, id := range lResidents(srv) {
		unused += int64(testSpec().SampleBytes(id))
	}
	srv.policyMu.Unlock()
	if free := lBytes - unused; free >= lBytes/2 {
		t.Fatalf("the loader stopped with %d of the L-cache's %d bytes free; want less than a package (%d)", free, lBytes, lBytes/2)
	}
}

// queuedMembers lists the package members waiting in srv's prefetch queue,
// failing unless they all belong to one package: the one in flight.
func queuedMembers(t *testing.T, srv *Server) []dataset.SampleID {
	t.Helper()
	p := srv.prefetch
	p.mu.Lock()
	defer p.mu.Unlock()
	var pk *pkgLoad
	var ids []dataset.SampleID
	for _, it := range p.queue {
		if it.pkg == nil {
			continue
		}
		if pk != nil && it.pkg != pk {
			t.Fatal("members of two packages are queued")
		}
		pk, ids = it.pkg, append(ids, it.id)
	}
	return ids
}

// hlistItems makes ids 0..n-1 the H-list, with seeded importance values.
func hlistItems(n int, rng *rand.Rand) []sampling.Item {
	items := make([]sampling.Item, n)
	for i := range items {
		items[i] = sampling.Item{ID: dataset.SampleID(i), IV: 1 + rng.Float64()}
	}
	return items
}

// TestLResidentsHaveBytes: seeded L-heavy traffic across epoch boundaries on a
// lone server. After every request and every delivery, every L-resident is
// in the payload store, and the store holds residents only.
func TestLResidentsHaveBytes(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		srv := newUnstartedServer(t, nil)
		cl := dial(t, serveOn(t, srv))
		spec := testSpec()
		rng := rand.New(rand.NewSource(35))
		const nH = 200
		if err := cl.UpdateImportance(hlistItems(nH, rng)); err != nil {
			t.Fatal(err)
		}
		ids := make([]dataset.SampleID, 16)
		for epoch := 1; epoch <= 4; epoch++ {
			if err := cl.BeginEpoch(epoch); err != nil {
				t.Fatal(err)
			}
			for req := 0; req <= 30; req++ {
				requireLResidentsStored(t, srv)
				waitLoaded(t, srv)
				requireLResidentsStored(t, srv)
				if req == 30 {
					break
				}
				for i := range ids {
					ids[i] = dataset.SampleID(nH + rng.Intn(spec.NumSamples-nH))
					if rng.Intn(5) == 0 {
						ids[i] = dataset.SampleID(rng.Intn(nH))
					}
				}
				if _, err := cl.GetBatch(ids); err != nil {
					t.Fatal(err)
				}
			}
		}
		v, d := engineView(srv), srv.DecisionStats()
		if v.Packages < 4 || v.Cache.Substitutions == 0 || d.AdmitPackage == 0 {
			t.Fatalf("%d packages, %d substitutions, %d package admissions: the test exercised nothing",
				v.Packages, v.Cache.Substitutions, d.AdmitPackage)
		}
	})
}

// TestSubstituteIsAMemoryRead: once a package has landed, substituted L-misses
// cost no source read — no demand fetch, and no read of any served id — and
// return the substitute's own verified bytes. No L-resident serves as a
// substitute twice in one epoch.
func TestSubstituteIsAMemoryRead(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		src := newHeldSource(t, nil, holdNone)
		srv := newUnstartedServer(t, src)
		cl := dial(t, serveOn(t, srv))
		spec := testSpec()
		rng := rand.New(rand.NewSource(7))
		const nH = 100
		if err := cl.UpdateImportance(hlistItems(nH, rng)); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpoch(1); err != nil {
			t.Fatal(err)
		}
		waitLoaded(t, srv)

		// Request L-samples that are not resident, each at most once this epoch.
		requested := make(map[dataset.SampleID]bool)
		misses := func(n int) []dataset.SampleID {
			srv.policyMu.Lock()
			defer srv.policyMu.Unlock()
			var ids []dataset.SampleID
			for len(ids) < n {
				id := dataset.SampleID(nH + rng.Intn(spec.NumSamples-nH))
				if !requested[id] && !srv.cache.Resident(id) {
					requested[id] = true
					ids = append(ids, id)
				}
			}
			return ids
		}
		subs := make(map[dataset.SampleID]bool)
		subs0 := cacheStats(srv).Substitutions
		for round := 0; round < 6; round++ {
			srv.policyMu.Lock()
			unused := lResidents(srv)
			srv.policyMu.Unlock()
			reads0, demand0 := src.reads(), srv.DemandFetches()
			ids := misses(4)
			got, err := cl.GetBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range got {
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					t.Fatalf("round %d: served bytes of %d: %v", round, s.ID, err)
				}
				switch {
				case s.ID == ids[i]:
					t.Fatalf("round %d: L-miss %d got no substitute from %d L-residents", round, s.ID, len(unused))
				case subs[s.ID]:
					t.Fatalf("round %d: L-resident %d substituted twice in one epoch", round, s.ID)
				case !slices.Contains(unused, s.ID):
					t.Fatalf("round %d: substitute %d was not an L-resident", round, s.ID)
				case slices.Contains(src.since(reads0), s.ID):
					t.Fatalf("round %d: substitute %d was read from the source", round, s.ID)
				}
				subs[s.ID] = true
			}
			if d := srv.DemandFetches() - demand0; d != 0 {
				t.Fatalf("round %d: %d demand fetches for substituted misses; want 0", round, d)
			}
			if n := cacheStats(srv).Substitutions - subs0; n != int64(len(subs)) {
				t.Fatalf("round %d: %d substitutions counted, %d served", round, n, len(subs))
			}
			waitLoaded(t, srv)
		}
	})
}

// brownout drives srv's admission gate into Brownout on a clock an hour
// ahead, so the test's own requests never roll the ladder, and returns the
// function that restores Normal. The second observation lands past the
// gate's 100 ms window, which rolls it over target.
func brownout(t *testing.T, srv *Server) (normal func()) {
	t.Helper()
	gate := overload.NewGate(overload.GateConfig{TargetDelay: time.Millisecond})
	srv.SetAdmission(gate)
	at := time.Now().Add(time.Hour)
	gate.Observe(at, 5*time.Millisecond)
	gate.Observe(at.Add(101*time.Millisecond), 5*time.Millisecond)
	if st := gate.State(); st != overload.Brownout {
		t.Fatalf("gate is %v; want brownout", st)
	}
	return func() {
		gate.Observe(at.Add(time.Second), 0)
		if st := gate.State(); st != overload.Normal {
			t.Fatalf("gate is %v; want normal", st)
		}
	}
}

// TestPackageLifecycle: one package in flight, Brownout holding its reads,
// Close with members still queued (the bubble ends only if Close leaves no
// worker running), and a member another node owns. Each case runs in a
// bubble, where a quiet point shows what every worker that could run did.
func TestPackageLifecycle(t *testing.T) {
	t.Run("OneInFlight", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			src := newHeldSource(t, nil, holdAll)
			srv := newUnstartedServer(t, src)
			cl := dial(t, serveOn(t, srv))
			// Registered last, so it runs before the server's Close, which waits
			// for the held request.
			t.Cleanup(src.open)
			if err := cl.BeginEpoch(1); err != nil { // composes package 1; its reads hold
				t.Fatal(err)
			}
			// L-requests while package 1 is held compose nothing more.
			done := make(chan error, 1)
			go func() {
				_, err := cl.GetBatch([]dataset.SampleID{11, 22, 33, 44})
				done <- err
			}()
			vt.Wait()
			if n := cacheStats(srv).Requests(); n != 4 {
				t.Fatalf("%d of the request's 4 samples reached the policy engine", n)
			}
			if v := engineView(srv); v.Packages != 1 || !v.Loading {
				t.Fatalf("%d packages composed, loading %v, with package 1 held; want 1, true", v.Packages, v.Loading)
			}
			src.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// No L-request came after the held one, so every package after
			// package 1 followed the delivery before it, until the L-cache
			// had no room.
			waitLoaded(t, srv)
			if v := engineView(srv); v.Packages < 2 || v.LLen == 0 {
				t.Fatalf("%d packages, %d L-residents after package 1 landed; want the next to follow its delivery", v.Packages, v.LLen)
			}
			requireLCacheFull(t, srv)
			requireLResidentsStored(t, srv)
		})
	})

	t.Run("BrownoutHoldsLoading", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			src := newHeldSource(t, nil, holdNone)
			srv := newUnstartedServer(t, src)
			normal := brownout(t, srv)
			cl := dial(t, serveOn(t, srv))
			if err := cl.BeginEpoch(1); err != nil {
				t.Fatal(err)
			}
			vt.Wait() // every worker that could read has
			held := queuedMembers(t, srv)
			if v := engineView(srv); len(held) == 0 || src.reads() != 0 || !v.Loading || v.Packages != 1 {
				t.Fatalf("Brownout: %d members queued, %d reads, loading %v, %d packages; want one package queued, 0 reads",
					len(held), src.reads(), v.Loading, v.Packages)
			}
			normal()
			waitLoaded(t, srv)
			v, d := engineView(srv), srv.DecisionStats()
			for _, id := range held {
				if src.count(id) != 1 || !(lockedResidents{srv}).Resident(id) {
					t.Fatalf("after Brownout: held member %d read %d times, resident %v; want once, resident",
						id, src.count(id), (lockedResidents{srv}).Resident(id))
				}
			}
			if v.Packages < 2 || int64(src.reads()) != d.AdmitPackage || v.LLen != src.reads() {
				t.Fatalf("after Brownout: %d packages, %d reads, %d admitted, %d L-residents; want the held package's delivery to compose the next, every read landed",
					v.Packages, src.reads(), d.AdmitPackage, v.LLen)
			}
			requireLCacheFull(t, srv)
			requireLResidentsStored(t, srv)
		})
	})

	t.Run("CloseWithMembersQueued", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			srv := newUnstartedServer(t, nil)
			brownout(t, srv)
			cl := dial(t, serveOn(t, srv))
			if err := cl.BeginEpoch(1); err != nil {
				t.Fatal(err)
			}
			if srv.prefetch.depth() == 0 {
				t.Fatal("no member queued")
			}
		})
	})

	t.Run("MemberOwnedElsewhere", func(t *testing.T) {
		inBubble(t, func(t *testing.T) {
			dir := dkv.NewDirectory()
			// Node 1 owns every even sample. It is never contacted: nothing is
			// requested, so nothing is looked up.
			for id := 0; id < testSpec().NumSamples; id += 2 {
				dir.Claim(dataset.SampleID(id), 1)
			}
			srv := newUnstartedServer(t, nil)
			// "node1" is an address nothing listens on.
			srv.EnableDistributed(0, dkv.Local{Dir: dir}, map[dkv.NodeID]string{1: "node1"})
			cl := dial(t, serveOn(t, srv))
			if err := cl.BeginEpoch(1); err != nil {
				t.Fatal(err)
			}
			waitLoaded(t, srv)
			members := srv.packageReads.Load()
			admitted := srv.DecisionStats().AdmitPackage
			if admitted == 0 || admitted == members {
				t.Fatalf("%d members read, %d admitted; want some dropped as node 1's and some kept", members, admitted)
			}
			srv.policyMu.Lock()
			lres := lResidents(srv)
			srv.policyMu.Unlock()
			for _, id := range lres {
				if id%2 == 0 {
					t.Errorf("L-resident %d is node 1's", id)
				}
			}
			owned := dir.OwnedBy(0, 1<<20)
			slices.Sort(owned)
			if !slices.Equal(owned, lres) {
				t.Errorf("node 0 owns %v in the directory; want exactly its L-residents %v", owned, lres)
			}
			for id := 0; id < testSpec().NumSamples; id += 2 {
				if n, ok := dir.Lookup(dataset.SampleID(id)); !ok || n != 1 {
					t.Fatalf("sample %d: owner %d (%v); want node 1 still", id, n, ok)
				}
			}
			requireLResidentsStored(t, srv)
		})
	})
}

// TestLoaderRunsBackToBack: with no L-request, the package after a boundary's
// follows its delivery, and the next follows that one's, each composed only
// after every member of the one before it was read, until the L-cache has no
// room for another. Then a full L-cache of unused residents composes nothing,
// at the next boundary either.
func TestLoaderRunsBackToBack(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		src := newHeldSource(t, nil, holdNone)
		srv := newUnstartedServer(t, src)
		// The reader runs under policyMu, inside the boundary's hold or a
		// delivery's: it records each package and the reads before it.
		var sizes, readsAt []int
		srv.cache.SetPackageReader(func(ids []dataset.SampleID) {
			if n := len(sizes); n > 0 && src.reads()-readsAt[n-1] != sizes[n-1] {
				t.Errorf("package %d composed after %d of package %d's %d member reads", n+1, src.reads()-readsAt[n-1], n, sizes[n-1])
			}
			if r := srv.cache.View().Cache.Requests(); r != 0 {
				t.Errorf("package %d composed after %d requests; want none", len(sizes)+1, r)
			}
			sizes, readsAt = append(sizes, len(ids)), append(readsAt, src.reads())
			srv.prefetch.addPackage(ids)
		})
		cl := dial(t, serveOn(t, srv))
		if err := cl.BeginEpoch(1); err != nil {
			t.Fatal(err)
		}
		waitLoaded(t, srv)
		srv.policyMu.Lock()
		composed := slices.Clone(sizes)
		srv.policyMu.Unlock()
		total := 0
		for _, n := range composed {
			total += n
		}
		if len(composed) < 2 || src.reads() != total {
			t.Fatalf("%d packages of %v members, %d reads; want the next package to follow each delivery, one read per member",
				len(composed), composed, src.reads())
		}
		requireLCacheFull(t, srv)
		requireLResidentsStored(t, srv)

		reads := src.reads()
		if err := cl.BeginEpoch(2); err != nil {
			t.Fatal(err)
		}
		waitLoaded(t, srv)
		if v := engineView(srv); v.Packages != int64(len(composed)) || src.reads() != reads {
			t.Fatalf("a boundary over a full L-cache composed %d packages and read %d samples; want none",
				v.Packages-int64(len(composed)), src.reads()-reads)
		}
	})
}
