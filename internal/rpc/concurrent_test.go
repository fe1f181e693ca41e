package rpc

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/storage"
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
//     outcome class — hits + misses + substitutions + degraded == requests.
//  2. Byte-for-byte payload correctness: every delivered payload verifies
//     against the dataset's deterministic generator for the *served* ID,
//     even when concurrent misses were coalesced into one backend read.
func TestConcurrentClientsConservation(t *testing.T) {
	defer leakcheck.Check(t)
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
		t.Fatalf("conservation violated: hits+misses+subs+degraded advanced by %d for %d requests (delta %+v)",
			got, want, st)
	}
	if st.Substitutions == 0 {
		t.Fatalf("workload never exercised substitution: %+v", st)
	}
	requireStoreWithinResidents(t, srv)
}

// slowFetchSource delays every fetch long enough that concurrent misses on
// the same sample are guaranteed to overlap the executing fetch.
type slowFetchSource struct {
	inner   ByteSource
	delay   time.Duration
	fetches int64
}

func (s *slowFetchSource) Spec() dataset.Spec { return s.inner.Spec() }
func (s *slowFetchSource) Fetch(id dataset.SampleID) ([]byte, error) {
	atomic.AddInt64(&s.fetches, 1)
	time.Sleep(s.delay)
	return s.inner.Fetch(id)
}

// TestConcurrentMissCoalescing releases many clients onto the *same* batch
// of uncached H-samples at once: with singleflight coalescing the backend
// sees one fetch per sample (not one per client), every client still gets
// correct bytes, and the coalesced-miss counter moves.
func TestConcurrentMissCoalescing(t *testing.T) {
	defer leakcheck.Check(t)
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := &slowFetchSource{inner: inner, delay: 100 * time.Millisecond}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

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

	// K concurrent misses per sample must not issue K backend reads. With
	// a 100ms fetch and a start barrier, every client lands inside the
	// executing fetch's window; allow generous slack anyway.
	if got := atomic.LoadInt64(&src.fetches); got >= int64(clients*len(ids)) {
		t.Fatalf("%d backend fetches for %d coalesced-candidate requests: no coalescing", got, clients*len(ids))
	}
	if srv.CoalescedMisses() == 0 {
		t.Fatal("coalesced-miss counter never moved")
	}
}

// TestUnplannedEpochIssuesNoPrefetch: the epoch plan is the only prefetcher.
// An L-cache-on server whose client crosses plain boundaries keeps loading
// L-packages into the policy's residency, but it issues no prefetch: every
// backend read is a demand fetch, and the payload store holds only what the
// policy keeps resident.
func TestUnplannedEpochIssuesNoPrefetch(t *testing.T) {
	defer leakcheck.Check(t)
	srv, addr, src := startServer(t)
	cl := dial(t, addr)
	spec := testSpec()

	// Small H-list; everything else is L. L misses seed the loader's
	// repack queue, and wall-clock time moves its virtual timeline.
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

	deadline := time.Now().Add(10 * time.Second)
	rng := rand.New(rand.NewSource(99))
	ids := make([]dataset.SampleID, 8)
	for lenL := 0; lenL == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the loader never delivered a package; the test exercised nothing")
		}
		for i := range ids {
			ids[i] = dataset.SampleID(100 + rng.Intn(spec.NumSamples-100))
		}
		if _, err := cl.GetBatch(ids); err != nil {
			t.Fatal(err)
		}
		lenL = engineView(srv).LLen
		time.Sleep(10 * time.Millisecond)
	}
	if d := srv.DecisionStats(); d.PrefetchIssued != 0 || d.AdmitPrefetch != 0 {
		t.Fatalf("%d prefetches issued, %d admitted without a plan; want none", d.PrefetchIssued, d.AdmitPrefetch)
	}
	if reads, demand := src.Reads(), srv.DemandFetches(); reads != demand {
		t.Fatalf("%d backend reads, %d of them demand fetches; want every read a demand fetch", reads, demand)
	}
	requireStoreWithinResidents(t, srv)
}
