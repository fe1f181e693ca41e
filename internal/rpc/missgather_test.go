package rpc

// Tests for the concurrent miss gather: the one collector's exactly-once
// Finish contract under backend failure and panic, and the bound on how many
// backend reads one request (and two) keep in flight.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/leakcheck"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// faultySource fails every Fetch of one sample (bad) — by error or by panic —
// and announces when another (mark) enters Fetch. Behind a gatedSource (see
// plan_test.go) gating bad, the failure lands exactly when the test says.
type faultySource struct {
	inner     ByteSource
	bad, mark dataset.SampleID
	panics    bool
	once      sync.Once
	marked    chan struct{} // closed when mark's fetch begins
}

func (f *faultySource) Spec() dataset.Spec { return f.inner.Spec() }

func (f *faultySource) Fetch(id dataset.SampleID) ([]byte, error) {
	switch id {
	case f.bad:
		if f.panics {
			panic("injected backend panic")
		}
		return nil, errors.New("injected disk failure")
	case f.mark:
		f.once.Do(func() { close(f.marked) })
	}
	return f.inner.Fetch(id)
}

// TestMissGatherFinishesExactlyOnceOnFailure: one id of a 32-miss batch
// fails (and, separately, panics) in the backend while a second request
// waits on the same id's singleflight key. Both requests must get the error
// in-band, no key may stay in flight, the other 31 samples must be admitted,
// and nothing may hang.
//
// The interleaving is forced, not hoped for: the second request also asks
// for a sample of its own (mark), and a request Begins every one of its keys
// before it fetches any — so mark entering Fetch proves the second request
// has already joined bad's call as a waiter, and only then is bad released.
func TestMissGatherFinishesExactlyOnceOnFailure(t *testing.T) {
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panic=%v", panics), func(t *testing.T) {
			defer leakcheck.Check(t)
			inner, err := storage.NewDataSource(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			const bad, mark = dataset.SampleID(17), dataset.SampleID(900)
			faulty := &faultySource{inner: inner, bad: bad, mark: mark, panics: panics, marked: make(chan struct{})}
			src := &gatedSource{inner: faulty, gate: bad, entered: make(chan struct{}),
				release: make(chan struct{}), counts: make(map[dataset.SampleID]int)}
			srv := newUnstartedServer(t, src, 0)
			addr := serveOn(t, srv)

			ids := make([]dataset.SampleID, 32)
			items := []sampling.Item{{ID: mark, IV: 5}}
			for i := range ids {
				ids[i] = dataset.SampleID(i)
				items = append(items, sampling.Item{ID: ids[i], IV: 5})
			}
			c1, c2 := dial(t, addr), dial(t, addr)
			if err := c1.UpdateImportance(items); err != nil {
				t.Fatal(err)
			}

			errs := make(chan error, 2)
			go func() { _, err := c1.GetBatch(ids); errs <- err }()
			<-src.entered
			go func() { _, err := c2.GetBatch([]dataset.SampleID{bad, mark}); errs <- err }()
			<-faulty.marked
			close(src.release)

			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					var se *ServerError
					if !errors.As(err, &se) {
						t.Errorf("request error = %v, want an in-band server error", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a request hung: a led singleflight key was never finished")
				}
			}
			if n := srv.flight.Inflight(); n != 0 {
				t.Fatalf("%d singleflight keys still in flight", n)
			}
			if n := src.count(bad); n != 1 {
				t.Fatalf("failing sample fetched %d times, want 1 (the waiter must share the leader's result)", n)
			}
			for _, id := range ids {
				if id != bad && !srv.payloads.has(id) {
					t.Fatalf("sample %d of the failed batch was not admitted", id)
				}
			}
			if srv.payloads.has(bad) {
				t.Fatal("failed sample has a payload")
			}
			for _, c := range []*Client{c1, c2} {
				if err := c.Ping(); err != nil {
					t.Fatalf("connection dead after in-band error: %v", err)
				}
			}
		})
	}
}

// countingSource charges a fixed latency per Fetch and tracks how many are
// in flight at once (cur, peak) and which goroutines called it.
type countingSource struct {
	inner   ByteSource
	latency time.Duration

	mu        sync.Mutex
	cur, peak int
	callers   map[string]bool
}

// goroutineID names the calling goroutine ("goroutine 42"), from the header
// line of its stack dump.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:bytes.Index(buf, []byte(" ["))])
}

func (c *countingSource) Spec() dataset.Spec { return c.inner.Spec() }

func (c *countingSource) Fetch(id dataset.SampleID) ([]byte, error) {
	c.mu.Lock()
	c.cur++
	if c.cur > c.peak {
		c.peak = c.cur
	}
	c.callers[goroutineID()] = true
	c.mu.Unlock()
	time.Sleep(c.latency)
	c.mu.Lock()
	c.cur--
	c.mu.Unlock()
	return c.inner.Fetch(id)
}

// reset clears the high-water marks between phases of a test.
func (c *countingSource) reset() {
	c.mu.Lock()
	c.peak, c.callers = 0, map[string]bool{}
	c.mu.Unlock()
}

func (c *countingSource) marks() (peak int, callers map[string]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak, c.callers
}

// missRange returns n distinct uncached sample ids starting at from.
func missRange(from, n int) []dataset.SampleID {
	ids := make([]dataset.SampleID, n)
	for i := range ids {
		ids[i] = dataset.SampleID(from + i)
	}
	return ids
}

// TestMissGatherConcurrencyBound drives the collector directly (no listener,
// no prefetch pool, so the byte source sees the request path alone): one
// 64-miss batch overlaps its backend reads up to missFanout, two concurrent
// batches up to twice that, and a one-miss batch runs its read on the
// request goroutine itself.
func TestMissGatherConcurrencyBound(t *testing.T) {
	inner, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	const latency = 20 * time.Millisecond
	src := &countingSource{inner: inner, latency: latency}
	src.reset()
	srv := newUnstartedServer(t, src, 0)
	// Every id below is an H-sample asked for once: always a miss, never
	// substituted.
	var items []sampling.Item
	for _, id := range missRange(1000, 500) {
		items = append(items, sampling.Item{ID: id, IV: 5})
	}
	srv.cache.InstallHList(sampling.NewHList(items))
	get := func(ids []dataset.SampleID) {
		sc := getServeScratch()
		defer srv.releaseScratch(sc)
		sc.ids = append(sc.ids[:0], ids...)
		if err := srv.getBatchPinned(sc, obs.TraceCtx{}, time.Time{}); err != nil {
			t.Error(err)
		}
		for i, sp := range sc.out {
			if sp.id != ids[i] {
				t.Errorf("H-sample %d substituted with %d", ids[i], sp.id)
			}
		}
	}

	t0 := time.Now()
	get(missRange(1000, 64))
	if dur, serial := time.Since(t0), 64*latency; dur > serial/2 {
		t.Fatalf("64-miss batch took %v; the serial loop takes %v", dur, serial)
	}
	if peak, _ := src.marks(); peak <= 1 || peak > missFanout {
		t.Fatalf("one 64-miss batch peaked at %d concurrent fetches, want 2..%d", peak, missFanout)
	}

	src.reset()
	var wg sync.WaitGroup
	for _, ids := range [][]dataset.SampleID{missRange(1100, 64), missRange(1200, 64)} {
		wg.Add(1)
		go func(ids []dataset.SampleID) {
			defer wg.Done()
			get(ids)
		}(ids)
	}
	wg.Wait()
	if peak, _ := src.marks(); peak <= missFanout/2 || peak > 2*missFanout {
		t.Fatalf("two 64-miss batches peaked at %d concurrent fetches, want %d..%d", peak, missFanout/2+1, 2*missFanout)
	}

	// Worker 0 is the request goroutine: a one-miss batch reads on the
	// calling goroutine and starts nothing, a two-miss batch adds one worker.
	me := goroutineID()
	src.reset()
	get(missRange(1300, 1))
	if _, callers := src.marks(); len(callers) != 1 || !callers[me] {
		t.Fatalf("one-miss batch fetched on %v, want only the request goroutine %q", callers, me)
	}
	src.reset()
	get(missRange(1400, 2))
	if _, callers := src.marks(); len(callers) != 2 || !callers[me] {
		t.Fatalf("two-miss batch fetched on %v, want the request goroutine %q plus one worker", callers, me)
	}
	if n := srv.flight.Inflight(); n != 0 {
		t.Fatalf("%d singleflight keys still in flight", n)
	}
}

// TestScatterRechecksResidencyFirst pins the order on the batched peer plane:
// a led key whose payload a racing fetch or prefetch stored between the
// request's miss scan and its Begin is finished from the store, before — and
// without — the directory multi-lookup.
func TestScatterRechecksResidencyFirst(t *testing.T) {
	srv := newUnstartedServer(t, nil, 0)
	cd := &countingDir{Local: dkv.Local{Dir: dkv.NewDirectory()}}
	srv.EnableDistributed(0, cd, nil)
	ids := warmOverWire(t, dial(t, serveOn(t, srv)), 4)
	base := atomic.LoadInt64(&cd.lookupBatches)

	var keys []missKey
	for i, id := range ids {
		c, leader := srv.flight.Begin(int64(id))
		if !leader {
			t.Fatalf("sample %d already in flight", id)
		}
		keys = append(keys, missKey{id: id, c: c, pos: i})
	}
	if rest := srv.scatterToPeers(keys, obs.TraceCtx{}, time.Time{}); len(rest) != 0 {
		t.Fatalf("%d resident keys went on to the backend gather", len(rest))
	}
	for _, k := range keys {
		if p, err := k.c.Wait(); err != nil || testSpec().VerifyPayload(k.id, p) != nil {
			t.Fatalf("sample %d finished with (%d bytes, %v)", k.id, len(p), err)
		}
	}
	if n := atomic.LoadInt64(&cd.lookupBatches) - base; n != 0 {
		t.Errorf("%d directory multi-lookups for keys already in the store, want 0", n)
	}
	if n := srv.flight.Inflight(); n != 0 {
		t.Errorf("%d singleflight keys leaked", n)
	}
}
