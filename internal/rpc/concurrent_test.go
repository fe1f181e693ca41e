package rpc

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/sampling"
)

// engineView reads the policy engine through the policy lock
// (package-internal test helper); cacheStats is its counters.
func engineView(srv *Server) icache.View {
	srv.policyMu.Lock()
	defer srv.policyMu.Unlock()
	return srv.cache.View()
}

func cacheStats(srv *Server) metrics.CacheStats { return engineView(srv).Cache }

// TestConcurrentClientsConservation hammers one server with many
// goroutine-local clients (run under -race by the test-race target) and
// asserts the two properties the sharded serving path must preserve:
//
//  1. Stats conservation: every requested sample is counted in exactly one
//     outcome class — hits + misses + substitutions == requests.
//  2. Byte-for-byte payload correctness: every delivered payload verifies
//     against the dataset's deterministic generator for the *served* ID,
//     even when concurrent misses were coalesced into one backend read.
func TestConcurrentClientsConservation(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		srv, addr, _ := startServer(t)
		spec := testSpec()

		// H-list over the low IDs so the run mixes H-path and L-path traffic
		// (L misses exercise substitution, which serves different IDs than
		// requested).
		setup := dial(t, addr)
		var items []sampling.Item
		for id := dataset.SampleID(0); id < 200; id++ {
			items = append(items, sampling.Item{ID: id, IV: 1 + float64(id)})
		}
		if err := setup.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		base := cacheStats(srv)
		baseReq := base.Requests()

		const (
			clients = 8
			batches = 25
			batch   = 16
		)
		var requested int64
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := Dial(addr, 2*time.Second)
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(int64(c)*7919 + 17))
				ids := make([]dataset.SampleID, batch)
				for b := 0; b < batches; b++ {
					for i := range ids {
						ids[i] = dataset.SampleID(rng.Intn(spec.NumSamples))
					}
					samples, err := cl.GetBatch(ids)
					if err != nil {
						errs <- err
						return
					}
					atomic.AddInt64(&requested, int64(len(ids)))
					for _, s := range samples {
						if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
							errs <- err
							return
						}
					}
					if b == batches/2 && c == 0 {
						// An epoch boundary mid-storm must not break conservation.
						if err := cl.BeginEpoch(1); err != nil {
							errs <- err
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		st := cacheStats(srv)
		got := st.Requests() - baseReq
		want := atomic.LoadInt64(&requested)
		if got != want {
			t.Fatalf("conservation violated: hits+misses+subs advanced by %d for %d requests (delta %+v)",
				got, want, st)
		}
		if st.Substitutions == 0 {
			t.Fatalf("workload never exercised substitution: %+v", st)
		}
		requireStoreWithinResidents(t, srv)
	})
}

// TestConcurrentMissCoalescing releases many clients onto the *same* batch
// of uncached H-samples at once: with singleflight coalescing the backend
// sees one fetch per sample (not one per client), every client still gets
// correct bytes, and the coalesced-miss counter moves.
func TestConcurrentMissCoalescing(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		spec := testSpec()
		src := delayedSource(t, spec, 100*time.Millisecond)
		srv := newUnstartedServer(t, src)
		addr := serveOn(t, srv)

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

		// Byte-for-byte correctness for every client, including the ones that
		// received a coalesced (shared) fetch result.
		for c, samples := range results {
			if len(samples) != len(ids) {
				t.Fatalf("client %d got %d samples for %d requests", c, len(samples), len(ids))
			}
			for i, s := range samples {
				if s.ID != ids[i] {
					t.Fatalf("client %d: H-sample %d substituted with %d", c, ids[i], s.ID)
				}
				want := spec.Payload(s.ID)
				if !bytes.Equal(s.Payload, want) {
					t.Fatalf("client %d: payload of %d corrupt under coalescing", c, s.ID)
				}
			}
		}

		// K concurrent misses per sample issue one backend read. With a 100ms
		// fetch and a start barrier, every client lands inside the executing
		// fetch's window: the bubble's clock does not move until all have.
		if got := src.Reads(); got != int64(len(ids)) {
			t.Fatalf("%d backend fetches for %d coalesced-candidate requests of %d samples: want one per sample", got, clients*len(ids), len(ids))
		}
		if srv.CoalescedMisses() == 0 {
			t.Fatal("coalesced-miss counter never moved")
		}
	})
}

// TestUnplannedEpochIssuesNoPrefetch: the epoch plan is the only prefetcher.
// An L-cache-on server whose client crosses plain boundaries loads L-packages,
// bytes and residency together, but it issues no plan entry: every backend
// read is a demand fetch or a package member's read, and the payload store
// holds only what the policy keeps resident.
func TestUnplannedEpochIssuesNoPrefetch(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		srv, addr, src := startServer(t)
		cl := dial(t, addr)
		spec := testSpec()

		// Small H-list; everything else is L. L-requests compose packages, and
		// L misses are re-packed first.
		var items []sampling.Item
		for id := dataset.SampleID(0); id < 20; id++ {
			items = append(items, sampling.Item{ID: id, IV: 5})
		}
		if err := cl.UpdateImportance(items); err != nil {
			t.Fatal(err)
		}
		if err := cl.BeginEpoch(1); err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(99))
		ids := make([]dataset.SampleID, 8)
		for lenL, tries := 0, 0; lenL == 0; tries++ {
			if tries == 100 {
				t.Fatal("the loader never delivered a package; the test exercised nothing")
			}
			for i := range ids {
				ids[i] = dataset.SampleID(100 + rng.Intn(spec.NumSamples-100))
			}
			if _, err := cl.GetBatch(ids); err != nil {
				t.Fatal(err)
			}
			waitLoaded(t, srv)
			lenL = engineView(srv).LLen
		}
		if d := srv.DecisionStats(); d.PrefetchIssued != 0 || d.AdmitPrefetch != 0 {
			t.Fatalf("%d prefetches issued, %d admitted without a plan; want none", d.PrefetchIssued, d.AdmitPrefetch)
		}
		reads, demand, members := src.Reads(), srv.DemandFetches(), srv.packageReads.Load()
		if members == 0 || reads != demand+members {
			t.Fatalf("%d backend reads: %d demand fetches, %d package-member reads; want every other read a member's",
				reads, demand, members)
		}
		requireLResidentsStored(t, srv)
	})
}
