package dkv

// The ownership-write combiner (own.go): a combined frame answers exactly what
// serial per-id calls would have, concurrent calls on one client share
// frames, and a lifecycle step's slice costs a few frames, not one per id.
// The fault-driven combiner tests (a held frame, a dropped connection, a
// failed leader) need internal/faults, which imports this package, so they
// live in combine_test.go (package dkv_test).

import (
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/retry"
	"icache/internal/vt"
)

func startOwnServer(t testing.TB) (*DirServer, *Directory, string) {
	t.Helper()
	dir := NewDirectory()
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, dir, ln.Addr().String()
}

// TestOwnBatchEqualsSerialCalls applies one random mix of claims and releases
// by three live nodes — over entries of a fourth, dead node, so reclaims are
// in the mix — as one frame on one directory and as serial calls on another:
// every verdict, the final table and the claim/reclaim counters agree.
func TestOwnBatchEqualsSerialCalls(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		batched, advance := clockedDir()
		serial, _ := clockedDir()
		for _, d := range []*Directory{batched, serial} {
			d.Register(3, ttl)
			for id := dataset.SampleID(0); id < 8; id++ {
				d.Claim(id, 3)
			}
		}
		advance(ttl + suspect) // node 3 is dead on both
		ops := make([]ownOp, 2000)
		for i := range ops {
			ops[i] = ownOp{kind: byte(ownClaim + rng.Intn(3)/2), id: dataset.SampleID(rng.Intn(32)), node: NodeID(rng.Intn(3))}
		}
		got := batched.applyOwnership(ops)
		for i, o := range ops {
			var want bool
			if o.kind == ownRelease {
				want = serial.Release(o.id, o.node)
			} else {
				want = serial.Claim(o.id, o.node)
			}
			if got[i] != want {
				t.Fatalf("entry %d %+v: batched verdict %v, serial %v", i, o, got[i], want)
			}
		}
		for id := dataset.SampleID(0); id < 32; id++ {
			bn, bok := batched.Lookup(id)
			sn, sok := serial.Lookup(id)
			if bn != sn || bok != sok {
				t.Errorf("id %d: batched owner (%d, %v), serial (%d, %v)", id, bn, bok, sn, sok)
			}
		}
		bc, bd := batched.Stats()
		sc, sd := serial.Stats()
		if bc != sc || bd != sd || batched.Membership().Reclaims != serial.Membership().Reclaims || batched.Membership().Reclaims == 0 {
			t.Errorf("counters: batched %d/%d/%d, serial %d/%d/%d (claims/denied/reclaims)",
				bc, bd, batched.Membership().Reclaims, sc, sd, serial.Membership().Reclaims)
		}
	})
}

// TestConcurrentClaimsCombine: 64 concurrent Claims on one client, the first
// 32 of them racing a second node's client for the same ids, get exactly the
// first-claim-wins verdicts — one winner per contended id, and the directory
// credits it — and every call reaches the server exactly once.
func TestConcurrentClaimsCombine(t *testing.T) {
	srv, dir, addr := startOwnServer(t)
	a, b := dialDir(t, addr), dialDir(t, addr)
	const n, contended = 64, 32
	var aWon, bWon [n]bool
	errs := make(chan error, n+contended)
	var wg sync.WaitGroup
	start := make(chan struct{})
	claim := func(c *DirClient, node NodeID, id int, won *bool) {
		defer wg.Done()
		<-start
		ok, err := c.Claim(dataset.SampleID(id), node)
		if err != nil {
			errs <- fmt.Errorf("node %d claim %d: %w", node, id, err)
		}
		*won = ok
	}
	for id := 0; id < n; id++ {
		wg.Add(1)
		go claim(a, 1, id, &aWon[id])
		if id < contended {
			wg.Add(1)
			go claim(b, 2, id, &bWon[id])
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		owner, _ := dir.Lookup(dataset.SampleID(id))
		if aWon[id] == bWon[id] || (aWon[id] && owner != 1) || (bWon[id] && owner != 2) {
			t.Errorf("id %d: node 1 won %v, node 2 won %v, directory credits %d", id, aWon[id], bWon[id], owner)
		}
	}
	if _, ops := srv.OwnershipStats(); ops != n+contended {
		t.Errorf("server applied %d entries, want %d", ops, n+contended)
	}
}

// TestRejoinTakesFewFrames: a 10 000-resident Rejoin against a DirServer is
// ⌈10 000 / MaxOwnBatch⌉ ownership frames, not 10 000, with the denied
// replays dropped as before; a scrub sweep's release and claim repairs are
// one frame each.
func TestRejoinTakesFewFrames(t *testing.T) {
	srv, dir, addr := startOwnServer(t)
	const residents, self, peer = 10000, NodeID(1), NodeID(2)
	for id := dataset.SampleID(0); id < 10; id++ {
		dir.Claim(id, peer)
	}
	cache := cacheOf(seq(residents)...)
	m := Member{Dir: dialDir(t, addr), ID: self, Cache: cache}
	d, err := m.Rejoin()
	if err != nil || d.ReplayedClaims != residents-10 || d.ReplayDenied != 10 || cache.ids[0] || !cache.ids[10] {
		t.Fatalf("rejoin: %+v, %v", d, err)
	}
	if frames, _ := srv.OwnershipStats(); frames > (residents+MaxOwnBatch-1)/MaxOwnBatch {
		t.Fatalf("a %d-resident rejoin took %d ownership frames", residents, frames)
	}

	for id := dataset.SampleID(100); id < 200; id++ {
		dir.Release(id, self)     // resident, unregistered
		dir.Claim(id+20000, self) // registered, not resident
	}
	before, _ := srv.OwnershipStats()
	if _, d, err = m.Scrub(0, 2*residents); err != nil || d.ScrubReleased != 100 || d.ScrubReclaimed != 100 {
		t.Fatalf("scrub: %+v, %v", d, err)
	}
	if frames, _ := srv.OwnershipStats(); frames-before != 2 {
		t.Errorf("the sweep's 200 repairs took %d ownership frames, want 2", frames-before)
	}
}

// ownRing is a three-replica ShardedDir over DirClients to three DirServers;
// replica r's client is wrap(r, its client).
func ownRing(t *testing.T, wrap func(ReplicaID, *DirClient) Service) (*ShardedDir, [3]*DirServer) {
	t.Helper()
	replicas := make(map[ReplicaID]Service, 3)
	var srvs [3]*DirServer
	for r := range srvs {
		var addr string
		srvs[r], _, addr = startOwnServer(t)
		c, err := DialDirConfigured(addr, DialConfig{Timeout: time.Second, Policy: retry.None()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		replicas[ReplicaID(r)] = wrap(ReplicaID(r), c)
	}
	return NewShardedDir(replicas, ShardedConfig{FailoverTTL: time.Minute}), srvs
}

func asIs(_ ReplicaID, c *DirClient) Service { return c }

// perID hides a directory's BatchService, so ClaimAll and ReleaseAll take the
// per-id path through it.
type perID struct{ Service }

// TestShardedRejoinTakesFewFrames: a 10 000-resident Rejoin through a
// three-replica ShardedDir is at most ⌈10 000 / MaxOwnBatch⌉ ownership frames
// per replica where the per-id path takes one per resident, with the same
// replays denied; releasing them all answers what per-id releases answer.
func TestShardedRejoinTakesFewFrames(t *testing.T) {
	const residents, self, peer = 10000, NodeID(1), NodeID(2)
	// rejoin replays residents through dir, whose ring already credits every
	// seventh id to another node, counting the ownership frames it takes.
	rejoin := func(ring *ShardedDir, srvs [3]*DirServer, dir Service) (metrics.MembershipStats, *fakeCache, int64) {
		for id := dataset.SampleID(0); id < residents; id += 7 {
			if ok, err := ring.Claim(id, peer); !ok || err != nil {
				t.Fatalf("peer claim of %d: (%v, %v)", id, ok, err)
			}
		}
		var frames int64
		for _, srv := range srvs {
			f, _ := srv.OwnershipStats()
			frames -= f
		}
		cache := cacheOf(seq(residents)...)
		d, err := Member{Dir: dir, ID: self, Cache: cache}.Rejoin()
		if err != nil || d.ReplayDenied != (residents+6)/7 {
			t.Fatalf("rejoin: %+v, %v", d, err)
		}
		for _, srv := range srvs {
			f, _ := srv.OwnershipStats()
			frames += f
		}
		return d, cache, frames
	}
	batched, bSrvs := ownRing(t, asIs)
	serial, sSrvs := ownRing(t, asIs)
	d, cache, frames := rejoin(batched, bSrvs, batched)
	want, wantCache, serialFrames := rejoin(serial, sSrvs, perID{serial})
	if d != want || !maps.Equal(cache.dropped, wantCache.dropped) {
		t.Fatalf("batched rejoin %+v dropped %d, per-id %+v dropped %d", d, len(cache.dropped), want, len(wantCache.dropped))
	}
	if most := int64(3 * ((residents + MaxOwnBatch - 1) / MaxOwnBatch)); frames > most {
		t.Errorf("a %d-resident rejoin took %d ownership frames, want at most %d", residents, frames, most)
	}
	if serialFrames != residents {
		t.Errorf("the per-id rejoin took %d frames, want one per resident", serialFrames)
	}

	got, err := ReleaseAll(batched, seq(residents), self)
	wantRel, werr := ReleaseAll(perID{serial}, seq(residents), self)
	if err != nil || werr != nil || !slices.Equal(got, wantRel) {
		t.Fatalf("batched releases (%v) differ from per-id ones (%v)", err, werr)
	}
}

// killsOnWrite is a replica that kills another replica's server when a
// batched write reaches it, before answering.
type killsOnWrite struct {
	*DirClient
	kill func()
}

func (k killsOnWrite) WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	k.kill()
	return k.DirClient.WriteBatch(release, ids, node)
}

// TestShardedWriteBatchFailsOver: replica 1 is killed after a batch has
// started on replica 0. Its group fails over to the survivors, and every id
// gets a verdict the ring then agrees with.
func TestShardedWriteBatchFailsOver(t *testing.T) {
	var srvs [3]*DirServer // set by the time the kill runs
	var once sync.Once
	ring, srvs := ownRing(t, func(r ReplicaID, c *DirClient) Service {
		if r != 0 {
			return c
		}
		return killsOnWrite{c, func() { once.Do(func() { srvs[1].Close() }) }}
	})
	ids := seq(3000)
	got, err := ring.WriteBatch(false, ids, 1)
	if err != nil || len(got) != len(ids) {
		t.Fatalf("%d verdicts for %d ids, %v", len(got), len(ids), err)
	}
	for i, id := range ids {
		if node, found, err := ring.Lookup(id); !got[i] || !found || node != 1 || err != nil {
			t.Fatalf("id %d: verdict %v, ring says (%d, %v, %v)", id, got[i], node, found, err)
		}
	}
	if st := ring.Ring(); st.Failovers != 1 || st.LiveReplicas != 2 {
		t.Errorf("ring after the kill: %+v, want one failover", st)
	}
}

// lastWords is an in-process replica that answers one batched write and then
// takes every replica of its ring down with it.
type lastWords struct {
	Local
	dead *atomic.Bool
}

func (l lastWords) WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	if l.dead.Swap(true) {
		return nil, ErrNoReplica
	}
	return ClaimAll(l.Local, ids, node)
}

// TestShardedWriteBatchNoReplicaAnswersPrefix: when the ring runs out of
// replicas mid-batch, the verdicts of the ids answered in order come back
// beside ErrNoReplica, as BatchService requires.
func TestShardedWriteBatchNoReplicaAnswersPrefix(t *testing.T) {
	var dead atomic.Bool
	replicas := make(map[ReplicaID]Service, 3)
	for r := ReplicaID(0); r < 3; r++ {
		replicas[r] = lastWords{Local{NewDirectory()}, &dead}
	}
	ring := NewShardedDir(replicas, ShardedConfig{FailoverTTL: time.Minute})
	view := ring.View()
	var ids []dataset.SampleID // led by an id replica 0 holds
	for id := dataset.SampleID(0); len(ids) < 64; id++ {
		if r, _ := view.Owner(id); r == 0 || len(ids) > 0 {
			ids = append(ids, id)
		}
	}
	first := len(ids) // replica 0's group is answered first
	for i, id := range ids {
		if r, _ := view.Owner(id); r != 0 {
			first = i
			break
		}
	}
	got, err := ring.WriteBatch(false, ids, 1)
	if err != ErrNoReplica || len(got) != first || slices.Contains(got, false) {
		t.Fatalf("%d verdicts %v, %v; want the %d of the leading ids replica 0 holds and ErrNoReplica", len(got), got, err, first)
	}
}

// failsOnce is an in-process replica whose next lookup fails when fail is
// set, clearing it.
type failsOnce struct {
	Local
	fail *bool
}

func (f failsOnce) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	if *f.fail {
		*f.fail = false
		return nil, errDirDown
	}
	return f.Local.LookupBatch(ids)
}

// TestShardedLastReplicaStaysInTheView: every replica of the ring fails one
// lookup. The ring fails each over but the last, whose error the lookup
// returns, and the next lookup asks that replica again at once instead of
// answering ErrNoReplica for a FailoverTTL. With one replica this is the
// one-directory deployment: a failed call costs that call only.
func TestShardedLastReplicaStaysInTheView(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			fail := make([]bool, n)
			replicas := make(map[ReplicaID]Service, n)
			for r := range n {
				replicas[ReplicaID(r)] = failsOnce{Local{NewDirectory()}, &fail[r]}
			}
			ring := NewShardedDir(replicas, ShardedConfig{FailoverTTL: time.Minute})
			if ok, err := ring.Claim(7, 1); !ok || err != nil {
				t.Fatalf("claim: (%v, %v)", ok, err)
			}
			for r := range fail {
				fail[r] = true
			}
			ids := []dataset.SampleID{7}
			_, first := ring.LookupBatch(ids)
			if slices.Contains(fail, true) {
				t.Fatalf("replicas left unasked: %v", fail)
			}
			got, err := ring.LookupBatch(ids)
			if err != nil {
				t.Fatalf("lookup after the failures: %v, want the last replica asked again", err)
			}
			if first != errDirDown {
				t.Errorf("lookup with every replica failing: %v, want the last replica's error", first)
			}
			if n == 1 && got[0] != (Owner{Node: 1, Found: true}) {
				t.Errorf("lookup after the failure: %+v, want the claim", got[0])
			}
			if st := ring.Ring(); st.LiveReplicas != 1 || st.Failovers != int64(n-1) {
				t.Errorf("ring: %+v, want %d failovers and the last replica live", st, n-1)
			}
		})
	}
}

// TestShardedOneOwnerClaimAllocs: a claim whose ids all route to one owner —
// every claim on a one-replica ring, which is what a node with a single -dir
// address dials — rides that owner's call as it is, without the regrouping a
// multi-owner batch pays for.
func TestShardedOneOwnerClaimAllocs(t *testing.T) {
	ring := NewShardedDir(map[ReplicaID]Service{0: Local{NewDirectory()}}, ShardedConfig{})
	id := dataset.SampleID(0)
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if ok, err := ring.Claim(id, 1); !ok || err != nil {
			t.Fatalf("claim %d: (%v, %v)", id, ok, err)
		}
	})
	t.Logf("%.0f allocations per claim", allocs)
	if allocs > 3 {
		t.Fatalf("one-id claim through a one-replica ShardedDir: %.0f allocations, want <= 3", allocs)
	}
}

// downable is an in-process replica whose claims and lookups fail while down
// is set: enough for a ShardedDir to fail it over.
type downable struct {
	Local
	down *bool
}

func (d downable) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	if *d.down {
		return false, errDirDown
	}
	return d.Local.Claim(id, node)
}

func (d downable) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	if *d.down {
		return nil, errDirDown
	}
	return d.Local.LookupBatch(ids)
}

// TestShardedOwnedByHidesStrandedEntries: claims made while replica 0 is
// failed over land on replica 1, and are stranded there once replica 0 is
// back. OwnedBy hides them. When a second failover routes their shard to
// replica 1 again, one Scrub releases the ones the node no longer caches and
// keeps the rest. The failover clock is the bubble's.
func TestShardedOwnedByHidesStrandedEntries(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const node = NodeID(1)
		var down bool
		d1 := NewDirectory()
		ring := NewShardedDir(map[ReplicaID]Service{0: downable{Local{NewDirectory()}, &down}, 1: Local{d1}},
			ShardedConfig{FailoverTTL: ttl})
		var ids []dataset.SampleID // replica 0's shard
		for id, view := dataset.SampleID(0), ring.View(); len(ids) < 8; id++ {
			if r, _ := view.Owner(id); r == 0 {
				ids = append(ids, id)
			}
		}
		down = true
		for _, id := range ids {
			if ok, err := ring.Claim(id, node); !ok || err != nil {
				t.Fatalf("claim of %d during the failover: (%v, %v)", id, ok, err)
			}
		}
		down = false
		time.Sleep(ttl) // replica 0 is re-admitted
		if d1.Len() != len(ids) || len(ring.View().Replicas) != 2 {
			t.Fatalf("premise: replica 1 holds %d entries, view %+v", d1.Len(), ring.View())
		}
		if owned, err := ring.OwnedBy(node, 0); err != nil || len(owned) != 0 {
			t.Fatalf("OwnedBy = %v (%v) with replica 0 back, want the stranded entries hidden", owned, err)
		}

		cache := cacheOf(ids[:4]...) // the node evicted the other four
		down = true
		if _, _, err := ring.Lookup(ids[0]); err != nil { // fails replica 0 over again
			t.Fatal(err)
		}
		if _, d, err := (Member{Dir: ring, ID: node, Cache: cache}).Scrub(0, 256); err != nil || d.ScrubReleased != 4 {
			t.Fatalf("scrub after the second failover: %+v, %v; want the 4 evicted entries released", d, err)
		}
		if owned, _ := ring.OwnedBy(node, 0); !slices.Equal(owned, ids[:4]) {
			t.Errorf("OwnedBy = %v after the scrub, want the cached %v", owned, ids[:4])
		}
	})
}

// BenchmarkOwnershipWrites: Claims through a DirClient to a DirServer on
// loopback from 1 and 64 concurrent claimers — ns per claim, and the frames
// the server applied per claim (1 for a lone caller; far below 1 once the
// combiner has company).
func BenchmarkOwnershipWrites(b *testing.B) {
	for _, claimers := range []int{1, 64} {
		b.Run(fmt.Sprintf("claimers=%d", claimers), func(b *testing.B) {
			srv, _, addr := startOwnServer(b)
			c, err := DialDir(addr, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < claimers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += claimers {
						if _, err := c.Claim(dataset.SampleID(next.Add(1)), 1); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			frames, _ := srv.OwnershipStats()
			b.ReportMetric(float64(frames)/float64(b.N), "frames/claim")
		})
	}
}
