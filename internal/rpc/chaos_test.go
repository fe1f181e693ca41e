package rpc

// Network-level chaos suite: full servers behind fault-injecting listeners,
// real clients with their default retry policy, all on an in-memory network
// inside a virtual-clock bubble (internal/vt), so retry backoff and redials
// cost no wall time, and a goroutine a test leaves blocked fails it (the
// bubble ends only when all of its goroutines have). It proves the transport
// layer rides through killed connections and flaky sockets without losing or
// corrupting a single request; cluster_test.go replays the node lifecycle on
// the same stack.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
)

// newVTServer builds a full cache server over testSpec() whose policy engine
// draws from seed and whose every backend read costs backendRead (on the
// bubble's clock); the caller serves it.
func newVTServer(t *testing.T, seed int64, backendRead time.Duration) *Server {
	t.Helper()
	source, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if backendRead > 0 {
		source.Injector().Add(faults.DelayEvery(faults.OpSourceFetch, 1, backendRead))
	}
	return newSeededServer(t, seed, source)
}

// chaosPolicy is the default retry schedule with three times the attempts:
// the drop rules count every connection's reads and writes together, so a
// few drops in a row can land on one client's attempts, and backoff costs
// no wall time in a bubble.
func chaosPolicy() retry.Policy {
	p := retry.Default()
	p.MaxAttempts = 12
	return p
}

// startChaosServer serves a full server at "cache" on a fresh in-memory
// network, every accepted connection behind inj.
func startChaosServer(t *testing.T, inj *faults.Injector) *Server {
	t.Helper()
	srv := newVTServer(t, 5, 0)
	go srv.Serve(faults.WrapListener(transporttest.NewNetwork(t).Listen("cache"), inj))
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestChaosClientSurvivesConnDrops drives a long request stream against a
// server whose accepted connections are killed every Nth read. Every request
// must still succeed (via redial + retry) and every payload must verify — a
// dropped connection may cost time, never data.
func TestChaosClientSurvivesConnDrops(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		// A request frame is one read: the stride keeps a drop roughly every
		// dozen requests.
		inj := faults.New(3).Add(faults.DropEvery(faults.OpConnRead, 13))
		srv := startChaosServer(t, inj)
		spec := testSpec()
		c, err := DialConfigured("cache", DialConfig{Timeout: time.Second, Policy: chaosPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })

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
	})
}

// TestChaosManyClientsNoLostRequests runs several concurrent clients against
// a server dropping connections in both directions. The server's
// per-connection isolation means one killed client connection must never
// disturb another client's stream.
func TestChaosManyClientsNoLostRequests(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		inj := faults.New(7).Add(
			faults.DropEvery(faults.OpConnRead, 30), // per request frame: one read each
			faults.DropEvery(faults.OpConnWrite, 45),
		)
		srv := startChaosServer(t, inj)
		spec := testSpec()

		const clients, calls = 4, 50
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := DialConfigured("cache", DialConfig{Timeout: time.Second, Policy: chaosPolicy()})
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
	})
}

// TestChaosDistributedPeersSurviveFaultyDirectory wires two nodes to one
// directory service through a fault-injecting directory wrapper: every few
// directory calls fail, yet client batches must keep completing — the nodes
// degrade to backend reads and count the failures.
func TestChaosDistributedPeersSurviveFaultyDirectory(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		spec := testSpec()
		netw := transporttest.NewNetwork(t)

		// Every 4th directory lookup and every 5th claim fail. The wrapper is
		// installed at wiring time (EnableDistributed), before any traffic.
		inj := faults.New(11).Add(
			faults.Rule{Op: faults.OpDirLookup, Every: 4, Action: faults.ActError},
			faults.Rule{Op: faults.OpDirClaim, Every: 5, Action: faults.ActError},
		)
		dirSrv := dkv.NewDirServer(dkv.NewDirectory())
		go dirSrv.Serve(netw.Listen("dir"))
		t.Cleanup(func() { dirSrv.Close() })

		var nodes [2]*Server
		addrs := [2]string{"node0", "node1"}
		for n := range nodes {
			nodes[n] = newVTServer(t, int64(n+5), 0)
			dirClient, err := dkv.DialDir("dir", time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dirClient.Close() })
			peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): addrs[1-n]}
			nodes[n].EnableDistributed(dkv.NodeID(n), faults.WrapDir(dirClient, inj), peer)
			go nodes[n].Serve(netw.Listen(addrs[n]))
			t.Cleanup(func() { nodes[n].Close() })
		}

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
		for n := range nodes {
			_, df := nodes[n].ResilienceStats()
			dirFailures += df
			requireStoreWithinResidents(t, nodes[n])
		}
		if dirFailures == 0 {
			t.Fatal("injected directory faults were not counted")
		}
	})
}
