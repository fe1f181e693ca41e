package dkv

// The ownership-write combiner (own.go): a combined frame answers exactly what
// serial per-id calls would have, concurrent calls on one client share
// frames, and a lifecycle step's slice costs a few frames, not one per id.
// The fault-driven combiner tests (a held frame, a dropped connection, a
// failed leader) need internal/faults, which imports this package, so they
// live in combine_test.go (package dkv_test).

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"icache/internal/dataset"
	"icache/internal/simclock"
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
	rng := rand.New(rand.NewSource(5))
	batched, bNow := clockedDir()
	serial, sNow := clockedDir()
	for _, d := range []*Directory{batched, serial} {
		d.Register(3, ttl)
		for id := dataset.SampleID(0); id < 8; id++ {
			d.Claim(id, 3)
		}
	}
	*bNow, *sNow = simclock.Time(ttl+suspect), simclock.Time(ttl+suspect) // node 3 is dead
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
