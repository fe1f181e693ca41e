package rpc

// Tests for the batched remote data plane (PR 5): the scatter-gather miss
// path, clean-close logging hygiene on muxed and refused bare-frame connections,
// chaos conservation under mid-batch peer connection drops, batched
// directory lookups in the scrubber, and the O(owning nodes) peer-RPC bound.

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/vt"
	"icache/internal/wire"
)

// newSeededServer builds a full cache server over testSpec() — a fifth of
// the dataset's bytes of capacity, the policy engine drawing from seed —
// that reads src (a plain storage.DataSource when nil). It is neither served
// nor closed: the one constructor every test server comes from.
func newSeededServer(t testing.TB, seed int64, src ByteSource) *Server {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		if src, err = storage.NewDataSource(spec); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	return srv
}

// newUnstartedServer builds a seed-5 server without serving it, so tests can
// configure pre-Serve state (distribution wiring, log capture, the prefetch
// pool's size) race-free — those fields are read without synchronization by
// the serving path and must not change once connections exist. src may be
// nil for a plain storage.DataSource. The server is closed at cleanup.
func newUnstartedServer(t *testing.T, src ByteSource) *Server {
	t.Helper()
	srv := newSeededServer(t, 5, src)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// serveOn starts srv on a test listener and returns its address.
func serveOn(t testing.TB, srv *Server) string {
	t.Helper()
	ln := listen(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// countingListener counts the connections it has accepted that the server
// has not closed yet (a read loop closes its connection on the way out).
type countingListener struct {
	net.Listener
	open atomic.Int64
}

type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: c, open: &l.open}, nil
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// requireNoConns waits for a quiet point and fails unless the server has
// closed every connection it accepted by then (each read loop observed its
// client's close and exited).
func (l *countingListener) requireNoConns(t *testing.T) {
	t.Helper()
	vt.Wait()
	if n := l.open.Load(); n != 0 {
		t.Fatalf("%d connections still live", n)
	}
}

// exchange writes one request frame on conn and reads the one response
// frame: a client's framing, driven by hand.
func exchange(t *testing.T, conn net.Conn, frame []byte) []byte {
	t.Helper()
	if err := wire.WritePayload(conn, frame); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCleanCloseLogsNothing pins the EOF contract of the connection loop: a
// client that completes its requests and closes cleanly must not produce a
// single server log line — EOF and net.ErrClosed are normal teardown, not
// connection errors. Checked for a mux session (closed from the demux
// reader's side) and for a connection that only ever carried bare frames,
// each refused in-band.
func TestCleanCloseLogsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T, addr string)
	}{
		{"mux", func(t *testing.T, addr string) {
			c, err := DialConfigured(addr, DialConfig{Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetBatch([]dataset.SampleID{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"bare", func(t *testing.T, addr string) {
			conn, err := testNet.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range [][]byte{{transport.OpPing}, encodeGetBatchRequest([]dataset.SampleID{1, 2, 3})} {
				if resp := exchange(t, conn, req); len(resp) == 0 || resp[0] != transport.StatusErr {
					t.Fatalf("bare request %v answered %v, want it refused", req[:1], resp)
				}
			}
			if err := conn.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inBubble(t, func(t *testing.T) {
				srv := newUnstartedServer(t, nil)
				var mu sync.Mutex
				var lines []string
				srv.Logf = func(format string, args ...interface{}) {
					mu.Lock()
					lines = append(lines, fmt.Sprintf(format, args...))
					mu.Unlock()
				}
				ln := &countingListener{Listener: listen(t)}
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })

				tc.drive(t, ln.Addr().String())
				ln.requireNoConns(t)
				mu.Lock()
				defer mu.Unlock()
				if len(lines) != 0 {
					t.Fatalf("clean close logged %d lines: %q", len(lines), lines)
				}
			})
		})
	}
}

// TestBatchedMissCoalescing is the K-concurrent-misses test for the
// scatter-gather path: with distribution enabled (which puts the peer
// scatter in front of the backend gather), many clients storming the same
// uncached samples
// must coalesce onto one backend fetch per sample via the singleflight
// Begin/Finish orchestration, and every client must still receive correct
// bytes.
func TestBatchedMissCoalescing(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		spec := testSpec()
		inner, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		src := &slowFetchSource{inner: inner, delay: 100 * time.Millisecond}
		srv := newUnstartedServer(t, src)
		srv.EnableDistributed(0, dkv.Local{Dir: dkv.NewDirectory()}, nil)
		addr := serveOn(t, srv)
		if srv.dist.peerCfg.Batch <= 0 {
			t.Fatal("fixture did not select the batched data plane")
		}

		ids := []dataset.SampleID{3, 5, 8, 13}
		var items []sampling.Item
		for _, id := range ids {
			items = append(items, sampling.Item{ID: id, IV: 10})
		}
		setup := dial(t, addr)
		if err := setup.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}

		const clients = 6
		start := make(chan struct{})
		results := make([][]Sample, clients)
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			cl := dial(t, addr)
			wg.Add(1)
			go func(c int, cl *Client) {
				defer wg.Done()
				<-start
				samples, err := cl.GetBatch(ids)
				if err != nil {
					errs <- err
					return
				}
				results[c] = samples
			}(c, cl)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		for c, samples := range results {
			if len(samples) != len(ids) {
				t.Fatalf("client %d got %d samples for %d requests", c, len(samples), len(ids))
			}
			for i, s := range samples {
				if s.ID != ids[i] {
					t.Fatalf("client %d: H-sample %d substituted with %d", c, ids[i], s.ID)
				}
				if !bytes.Equal(s.Payload, spec.Payload(s.ID)) {
					t.Fatalf("client %d: payload of %d corrupt under batched coalescing", c, s.ID)
				}
			}
		}
		if got := atomic.LoadInt64(&src.fetches); got != int64(len(ids)) {
			t.Fatalf("%d backend fetches for %d coalesced-candidate requests of %d samples: want one per sample on the batched path", got, clients*len(ids), len(ids))
		}
		if srv.CoalescedMisses() == 0 {
			t.Fatal("coalesced-miss counter never moved on the batched path")
		}
	})
}

// TestBatchedDuplicateIDsInOneBatch guards the dedupe in the miss collector
// on both deployment shapes that reach it — a lone server and the batched
// peer plane: a mini-batch repeating the same uncached id must not deadlock the request
// goroutine against its own singleflight key, and every position must be
// filled.
func TestBatchedDuplicateIDsInOneBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Server)
	}{
		{"lone", func(*Server) {}},
		{"distributed", func(srv *Server) {
			srv.EnableDistributed(0, dkv.Local{Dir: dkv.NewDirectory()}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No plan, so no prefetch: a worker joining one of the request's
			// fetches would be a genuine coalesced miss and blur the count below.
			srv := newUnstartedServer(t, nil)
			tc.setup(srv)
			addr := serveOn(t, srv)
			spec := testSpec()

			c := dial(t, addr)
			if err := c.UpdateImportance([]sampling.Item{{ID: 2, IV: 9}, {ID: 9, IV: 9}}); err != nil {
				t.Fatal(err)
			}
			// 1500 is outside the H-list: an uncached L-request, so duplicates
			// that the policy never admits are covered too.
			ids := []dataset.SampleID{2, 2, 9, 1500, 9, 2, 1500}
			done := make(chan struct{})
			var samples []Sample
			var err error
			go func() {
				samples, err = c.GetBatch(ids)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("GetBatch with duplicate ids hung (self-deadlock in the miss orchestration)")
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != len(ids) {
				t.Fatalf("got %d samples for %d requests", len(samples), len(ids))
			}
			for i, s := range samples {
				if ids[i] != 1500 && s.ID != ids[i] {
					t.Fatalf("position %d: H-sample %d substituted with %d", i, ids[i], s.ID)
				}
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					t.Fatal(err)
				}
			}
			// The repeats joined calls the request itself led and shared
			// nobody else's fetch.
			if n := srv.CoalescedMisses(); n != 0 {
				t.Errorf("coalesced misses = %d for a request's own duplicate ids, want 0", n)
			}
		})
	}
}

// TestChaosMidBatchPeerDropConservation injects connection drops on the
// owning node's listener, so the victim node's batched peer RPCs die
// mid-batch. The victim must degrade the failed chunks to backend reads —
// never error a client — and its outcome counters must conserve EXACTLY:
// the stats delta equals the number of samples its clients requested, with
// no sample double-counted or lost by the scatter-gather fan-out.
func TestChaosMidBatchPeerDropConservation(t *testing.T) {
	// One read per request frame on the owner's connections: every fourth
	// kills its connection. (Every third resonates with a fresh session —
	// ping, request, and the read that awaits the next — so the retry of a
	// request whose connection died would always die the same way.)
	inj := faults.New(17).Add(faults.DropEvery(faults.OpConnRead, 4))
	f := startTracedDistFixture(t, inj, nil)
	spec := testSpec()

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	ids := hotIDs(t, cA, 16)
	hotIDs(t, cB, 16) // same H-list on node 1, so serving is exact
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	base := cacheStats(f.nodes[1]).Requests()
	const rounds = 8
	for round := 0; round < rounds; round++ {
		samples, err := cB.GetBatch(ids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(samples) != len(ids) {
			t.Fatalf("round %d: served %d of %d", round, len(samples), len(ids))
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("round %d: H-sample %d substituted", round, ids[i])
			}
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("round %d: corrupt payload: %v", round, err)
			}
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("fault rules never fired")
	}
	if rpcs, _ := f.nodes[1].PeerBatchStats(); rpcs == 0 {
		t.Fatal("victim node never used the batched peer path")
	}

	// Exact conservation: cB is the only client of node 1 and its transport
	// is NOT faulted (only node 0's listener is wrapped), so no client retry
	// can replay a request — the delta must equal exactly what we issued.
	delta := cacheStats(f.nodes[1]).Requests() - base
	if want := int64(rounds * len(ids)); delta != want {
		t.Fatalf("conservation violated under mid-batch drops: outcome classes advanced by %d for %d requested samples", delta, want)
	}
	requireStoreWithinResidents(t, f.nodes[0])
	requireStoreWithinResidents(t, f.nodes[1])
}

// countingDir wraps the in-process directory adapter and counts ownership
// probes, so tests can assert HOW the server talks to the directory, not
// just that it gets answers.
type countingDir struct {
	dkv.Local
	lookups       int64
	lookupBatches int64
	batchedIDs    int64
}

func (c *countingDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	atomic.AddInt64(&c.lookups, 1)
	return c.Local.Lookup(id)
}

func (c *countingDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	atomic.AddInt64(&c.lookupBatches, 1)
	atomic.AddInt64(&c.batchedIDs, int64(len(ids)))
	return c.Local.LookupBatch(ids)
}

// TestScrubSweepUsesOneBatchedLookup pins the scrubber's directory cost
// model: one anti-entropy sweep probes its whole resident window with a
// single LookupBatch — not ScrubBatch per-id Lookups — so the directory
// RPC count per sweep drops by ~ScrubBatch×. Claims and releases stay
// per-id (they are the rare repairs), but the common probe is batched.
func TestScrubSweepUsesOneBatchedLookup(t *testing.T) {
	srv := newUnstartedServer(t, nil) // no plan: a prefetch's misses would add probes
	cd := &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}
	srv.EnableDistributed(4, cd, nil)
	addr := serveOn(t, srv)

	c := dial(t, addr)
	warmOverWire(t, c, 40) // 40 residents, claimed through cd

	const window = 8
	srv.dist.memCfg = MembershipConfig{ScrubBatch: window}.withDefaults()
	baseLk := atomic.LoadInt64(&cd.lookups)
	baseLB := atomic.LoadInt64(&cd.lookupBatches)
	baseIDs := atomic.LoadInt64(&cd.batchedIDs)
	srv.scrubOnce()

	if got := atomic.LoadInt64(&cd.lookups) - baseLk; got != 0 {
		t.Fatalf("scrub sweep issued %d per-id Lookups; want 0 (batched probe only)", got)
	}
	if got := atomic.LoadInt64(&cd.lookupBatches) - baseLB; got != 1 {
		t.Fatalf("scrub sweep issued %d LookupBatch calls; want exactly 1", got)
	}
	if got := atomic.LoadInt64(&cd.batchedIDs) - baseIDs; got != window {
		t.Fatalf("scrub sweep probed %d ids in one RPC; want the full window of %d", got, window)
	}
	if sweeps := srv.MembershipStats().ScrubSweeps; sweeps != 1 {
		t.Fatalf("ScrubSweeps = %d after one scrubOnce", sweeps)
	}
}

// TestPeerRPCsScaleWithOwnersNotMisses pins the headline property of the
// scatter-gather miss path: a mini-batch whose misses all live on ONE peer
// costs exactly one opPeerGetBatch RPC (plus one directory multi-lookup) —
// O(owning nodes), not O(misses). The zero PeerConfig must behave like the
// default one: Batch is only a chunk cap, and a zero cap reaching the chunk
// loop would spin forever.
func TestPeerRPCsScaleWithOwnersNotMisses(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook func(int, *Server)
	}{
		{"default", nil},
		{"zero-config", func(_ int, srv *Server) { srv.SetPeerConfig(PeerConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startDistFixtureHook(t, tc.hook)
			spec := testSpec()

			cA := dial(t, f.addrs[0])
			cB := dial(t, f.addrs[1])
			const n = 64
			var items []sampling.Item
			var ids []dataset.SampleID
			for id := dataset.SampleID(0); id < n; id++ {
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

			rpcs0, samples0 := f.nodes[1].PeerBatchStats()
			var samples []Sample
			done := make(chan error, 1)
			go func() {
				var err error
				samples, err = cB.GetBatch(ids)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("remote-owned GetBatch hung (chunk loop with a zero cap?)")
			}
			for i, s := range samples {
				if s.ID != ids[i] {
					t.Fatalf("H-sample %d substituted", ids[i])
				}
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					t.Fatal(err)
				}
			}
			rpcs, carried := f.nodes[1].PeerBatchStats()
			if got := rpcs - rpcs0; got != 1 {
				t.Fatalf("%d misses owned by one peer cost %d batched RPCs; want exactly 1", n, got)
			}
			if got := carried - samples0; got != n {
				t.Fatalf("the batched RPC carried %d samples; want all %d misses", got, n)
			}
			if _, hits := f.nodes[1].PeerStats(); hits != n {
				t.Fatalf("peer hits = %d; want %d (every miss served remotely)", hits, n)
			}
		})
	}
}

// TestPrefetchRidesTheBatchedResolver: a prefetch worker has no peer,
// directory or backend call of its own — a plan entry whose sample a live
// peer owns costs one LookupBatch and one opPeerGetBatch (never a per-sample
// Lookup, never a backend read), admits nothing on the prefetching node, and
// leaves the outcome ledger balanced at the next epoch boundary.
func TestPrefetchRidesTheBatchedResolver(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		cd := &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}
		f := startDistFixtureHook(t, func(_ int, srv *Server) {
			srv.dist.dir, srv.dist.dirCtx = cd, nil // both nodes share the counted directory
		})
		cA := dial(t, f.addrs[0])
		cB := dial(t, f.addrs[1])
		b := f.nodes[1]
		const id = dataset.SampleID(12)
		for _, c := range []*Client{cA, cB} {
			if err := c.UpdateImportance([]sampling.Item{{ID: id, IV: 5}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cA.GetBatch([]dataset.SampleID{id}); err != nil { // node A owns it
			t.Fatal(err)
		}

		lk, lb := atomic.LoadInt64(&cd.lookups), atomic.LoadInt64(&cd.lookupBatches)
		rpcs0, _ := b.PeerBatchStats()
		_, hits0 := b.PeerStats()
		reads0 := f.sources[1].Reads()
		b.acceptRemote([]dataset.SampleID{id})
		waitPlanSettled(t, b)
		if got := atomic.LoadInt64(&cd.lookups) - lk; got != 0 {
			t.Errorf("%d per-sample Lookups; want 0", got)
		}
		if got := atomic.LoadInt64(&cd.lookupBatches) - lb; got != 1 {
			t.Errorf("%d LookupBatch calls; want 1", got)
		}
		if rpcs, _ := b.PeerBatchStats(); rpcs-rpcs0 != 1 {
			t.Errorf("%d opPeerGetBatch RPCs; want 1", rpcs-rpcs0)
		}
		if _, hits := b.PeerStats(); hits-hits0 != 1 {
			t.Errorf("%d peer hits; want 1", hits-hits0)
		}
		if got := f.sources[1].Reads() - reads0; got != 0 {
			t.Errorf("%d backend reads for a sample a live peer owns; want 0", got)
		}
		if b.payloads.has(id) {
			t.Errorf("node B stored peer-owned sample %d", id)
		}
		if d := b.DecisionStats(); d.AdmitPrefetch != 0 || d.PrefetchIssued != 1 {
			t.Errorf("AdmitPrefetch = %d, PrefetchIssued = %d; want one prefetch that admits nothing", d.AdmitPrefetch, d.PrefetchIssued)
		}
		requireStoreWithinResidents(t, b)

		// The peer-served prefetch left nothing on B for a hit to redeem: the
		// boundary books it wasted.
		if d, _ := crossBoundary(t, b, "after a peer-served prefetch", func() error { return cB.BeginEpoch(1) }); d.PrefetchWasted != 1 {
			t.Errorf("wasted = %d after the boundary; want the peer-served prefetch", d.PrefetchWasted)
		}
	})
}
