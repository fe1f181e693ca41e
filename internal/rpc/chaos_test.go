package rpc

// Network-level chaos suite: real TCP servers behind fault-injecting
// listeners, real clients with retry policies. Where the icache chaos suite
// proves the *policy* layer degrades gracefully under virtual-time faults,
// this one proves the *transport* layer rides through killed connections
// and flaky sockets without losing or corrupting a single request.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// chaosPolicy retries hard and fast: chaos drops connections often, and the
// assertion is that no request is ever lost, so the client must always have
// backoff budget left.
func chaosPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 12,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// startChaosServer runs a full server behind a fault-wrapped listener.
func startChaosServer(t *testing.T, inj *faults.Injector) (*Server, string) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(faults.WrapListener(ln, inj))
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestChaosClientSurvivesConnDrops drives a long request stream against a
// server whose accepted connections are killed every Nth socket read. Every
// request must still succeed (via redial + retry) and every payload must
// verify — a dropped connection may cost time, never data.
func TestChaosClientSurvivesConnDrops(t *testing.T) {
	leakcheck.Check(t)
	// A request frame is one socket read (it was two, and the stride 25):
	// the stride keeps a drop roughly every dozen requests.
	inj := faults.New(3).Add(faults.DropEvery(faults.OpConnRead, 13))
	srv, addr := startChaosServer(t, inj)
	spec := testSpec()

	c, err := DialPolicy(addr, time.Second, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pin ids 0..9 as H-samples so delivery is exact and verifiable.
	var items []sampling.Item
	ids := make([]dataset.SampleID, 10)
	for i := range ids {
		ids[i] = dataset.SampleID(i)
		items = append(items, sampling.Item{ID: ids[i], IV: 5})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}

	for call := 0; call < 200; call++ {
		samples, err := c.GetBatch(ids)
		if err != nil {
			t.Fatalf("call %d failed despite retry policy: %v", call, err)
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("call %d: sample %d substituted for H-sample %d", call, s.ID, ids[i])
			}
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("call %d: corrupt payload for %d: %v", call, s.ID, err)
			}
		}
	}

	if inj.Fired(faults.OpConnRead) == 0 {
		t.Fatal("drop rule never fired — the chaos schedule tested nothing")
	}
	retries, redials := c.Resilience()
	if retries == 0 || redials == 0 {
		t.Fatalf("resilience counters (retries=%d redials=%d) claim a clean run under chaos", retries, redials)
	}
	requireStoreWithinResidents(t, srv)
}

// TestChaosManyClientsNoLostRequests runs several concurrent clients
// against a server dropping connections in both directions. The server's
// per-connection isolation means one killed client connection must never
// disturb another client's stream.
func TestChaosManyClientsNoLostRequests(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(7).Add(
		faults.DropEvery(faults.OpConnRead, 30), // per request frame: one read each
		faults.DropEvery(faults.OpConnWrite, 45),
	)
	srv, addr := startChaosServer(t, inj)
	spec := testSpec()

	const clients, calls = 4, 50
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialPolicy(addr, time.Second, chaosPolicy())
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", w, err)
				return
			}
			defer c.Close()
			for call := 0; call < calls; call++ {
				ids := []dataset.SampleID{dataset.SampleID(w*100 + call), dataset.SampleID(w*100 + call + 1)}
				samples, err := c.GetBatch(ids)
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", w, call, err)
					return
				}
				for _, s := range samples {
					if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
						errs <- fmt.Errorf("client %d call %d: corrupt payload: %w", w, call, err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("no faults fired across the concurrent run")
	}
	requireStoreWithinResidents(t, srv)
}

// TestChaosDistributedPeersSurviveFaultyDirectory wires the two-node
// distributed fixture through a fault-injecting directory wrapper: every
// few directory calls fail, yet client batches must keep completing — the
// nodes degrade to backend reads and count the failures.
func TestChaosDistributedPeersSurviveFaultyDirectory(t *testing.T) {
	leakcheck.Check(t)
	spec := testSpec()

	// Every 4th directory lookup and every 5th claim fail. The wrapper is
	// installed at wiring time (EnableDistributed), before any traffic.
	inj := faults.New(11).Add(
		faults.Rule{Op: faults.OpDirLookup, Every: 4, Action: faults.ActError},
		faults.Rule{Op: faults.OpDirClaim, Every: 5, Action: faults.ActError},
	)

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	var nodes [2]*Server
	var addrs [2]string
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
		nodes[n] = NewServer(cacheSrv, source)
		nodes[n].Logf = nil
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(dirLn.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): addrs[1-n]}
		nodes[n].EnableDistributed(dkv.NodeID(n), faults.WrapDir(dirClient, inj), peer)
		go nodes[n].Serve(lns[n])
	}
	t.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})

	cA := dial(t, addrs[0])
	cB := dial(t, addrs[1])
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 30; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i, c := range []*Client{cA, cB} {
			samples, err := c.GetBatch(ids)
			if err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
			if len(samples) != len(ids) {
				t.Fatalf("round %d node %d: served %d of %d", round, i, len(samples), len(ids))
			}
			for j, s := range samples {
				if s.ID != ids[j] {
					t.Fatalf("round %d node %d: H-sample %d substituted", round, i, ids[j])
				}
				if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
					t.Fatalf("round %d node %d: corrupt payload: %v", round, i, err)
				}
			}
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("directory fault rules never fired")
	}
	var dirFailures int64
	for n := 0; n < 2; n++ {
		_, df := nodes[n].ResilienceStats()
		dirFailures += df
		requireStoreWithinResidents(t, nodes[n])
	}
	if dirFailures == 0 {
		t.Fatal("injected directory faults were not counted")
	}
}
