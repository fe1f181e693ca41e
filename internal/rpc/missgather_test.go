package rpc

// Tests for the concurrent miss gather: the one collector's exactly-once
// Finish contract under backend failure and panic, and the server-wide
// backend-read budget — its bound, its slot lifecycle and its FIFO order.

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
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/vt"
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
			inBubble(t, func(t *testing.T) {
				inner, err := storage.NewDataSource(testSpec())
				if err != nil {
					t.Fatal(err)
				}
				const bad, mark = dataset.SampleID(17), dataset.SampleID(900)
				faulty := &faultySource{inner: inner, bad: bad, mark: mark, panics: panics, marked: make(chan struct{})}
				src := &gatedSource{inner: faulty, gate: bad, entered: make(chan struct{}),
					release: make(chan struct{}), counts: make(map[dataset.SampleID]int)}
				srv := newUnstartedServer(t, src)
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
						var se *transport.ServerError
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
		})
	}
}

// countingSource charges a fixed latency per Fetch and tracks how many are
// in flight at once (cur, peak), which goroutines called it and which samples
// it read.
type countingSource struct {
	inner   ByteSource
	latency time.Duration

	mu        sync.Mutex
	cur, peak int
	callers   map[string]bool
	read      map[dataset.SampleID]bool
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
	c.read[id] = true
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
	c.peak, c.callers, c.read = 0, map[string]bool{}, map[dataset.SampleID]bool{}
	c.mu.Unlock()
}

// readAny reports whether any of ids was read since the last reset.
func (c *countingSource) readAny(ids []dataset.SampleID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if c.read[id] {
			return true
		}
	}
	return false
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

// gatherFixture is an unstarted server over src whose ids 1000..1999 are all
// H-samples: asked for once, each is always a miss and never substituted. get
// drives the collector directly (no listener), so src sees the miss path alone.
func gatherFixture(t *testing.T, src ByteSource) (srv *Server, get func(ids []dataset.SampleID) error) {
	t.Helper()
	srv = newUnstartedServer(t, src)
	var items []sampling.Item
	for _, id := range missRange(1000, 1000) {
		items = append(items, sampling.Item{ID: id, IV: 5})
	}
	srv.cache.InstallHList(sampling.NewHList(items))
	return srv, func(ids []dataset.SampleID) error {
		sc := getServeScratch()
		defer releaseScratch(sc)
		sc.ids = append(sc.ids[:0], ids...)
		if err := srv.getBatchPinned(sc, obs.TraceCtx{}, time.Time{}); err != nil {
			return err
		}
		for i, sp := range sc.out {
			if sp.id != ids[i] {
				t.Errorf("H-sample %d substituted with %d", ids[i], sp.id)
			}
		}
		return nil
	}
}

// getAll runs one get per id list concurrently and waits for all of them.
func getAll(t *testing.T, get func([]dataset.SampleID) error, batches ...[]dataset.SampleID) {
	t.Helper()
	var wg sync.WaitGroup
	for _, ids := range batches {
		wg.Add(1)
		go func(ids []dataset.SampleID) {
			defer wg.Done()
			if err := get(ids); err != nil {
				t.Error(err)
			}
		}(ids)
	}
	wg.Wait()
}

// TestMissGatherConcurrencyBound: the bound on backend reads in flight belongs
// to the server, not to the request. One 64-miss batch on an idle server uses
// the whole budget; two concurrent batches, and eight small requests beside a
// busy prefetch pool, still never exceed it; a one-miss batch runs its read on
// the request goroutine itself.
func TestMissGatherConcurrencyBound(t *testing.T) {
	inner, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	const latency = 20 * time.Millisecond
	src := &countingSource{inner: inner, latency: latency}
	src.reset()
	srv, get := gatherFixture(t, src)
	wantPeak := func(what string) {
		t.Helper()
		if peak, _ := src.marks(); peak <= backendReadBudget/2 || peak > backendReadBudget {
			t.Fatalf("%s peaked at %d concurrent fetches, want %d..%d", what, peak, backendReadBudget/2+1, backendReadBudget)
		}
	}

	t0 := time.Now()
	getAll(t, get, missRange(1000, 64))
	if dur, serial := time.Since(t0), 64*latency; dur > serial/4 {
		t.Fatalf("64-miss batch took %v; the serial loop takes %v", dur, serial)
	}
	wantPeak("one 64-miss batch")

	src.reset()
	getAll(t, get, missRange(1100, 64), missRange(1200, 64))
	wantPeak("two 64-miss batches")

	// Worker 0 is the request goroutine: a one-miss batch reads on the
	// calling goroutine and starts nothing, a two-miss batch adds one worker.
	me := goroutineID()
	src.reset()
	if err := get(missRange(1300, 1)); err != nil {
		t.Fatal(err)
	}
	if _, callers := src.marks(); len(callers) != 1 || !callers[me] {
		t.Fatalf("one-miss batch fetched on %v, want only the request goroutine %q", callers, me)
	}
	src.reset()
	if err := get(missRange(1400, 2)); err != nil {
		t.Fatal(err)
	}
	if _, callers := src.marks(); len(callers) != 2 || !callers[me] {
		t.Fatalf("two-miss batch fetched on %v, want the request goroutine %q plus one worker", callers, me)
	}
	if n := srv.flight.Inflight(); n != 0 {
		t.Fatalf("%d singleflight keys still in flight", n)
	}

	// Prefetch reads draw on the same slots: with a plan keeping every worker
	// busy, eight 8-miss requests (64 + 32 reads wanted at once) stay inside
	// the budget.
	src.reset()
	psrv, pget := gatherFixture(t, src)
	planned := missRange(1700, 200)
	psrv.prefetch.addPlan(planned, &PlanStats{})
	var small [][]dataset.SampleID
	for r := 0; r < 8; r++ {
		small = append(small, missRange(1500+8*r, 8))
	}
	getAll(t, pget, small...)
	wantPeak("eight 8-miss requests beside the prefetch pool")
	if !src.readAny(planned) {
		t.Fatal("the prefetch pool read nothing while the requests ran")
	}
}

// flakySource fails every Fetch — by error or by panic — while failing is set,
// and delegates otherwise.
type flakySource struct {
	ByteSource
	panics  bool
	failing atomic.Bool
}

func (f *flakySource) Fetch(id dataset.SampleID) ([]byte, error) {
	switch {
	case !f.failing.Load():
		return f.ByteSource.Fetch(id)
	case f.panics:
		panic("injected backend panic")
	}
	return nil, errors.New("injected disk failure")
}

// TestReadBudgetSurvivesPanicAndError: a backend read that fails or panics
// hands its slot back. After more failed reads than the budget has slots, no
// slot is held and a 64-miss batch still gets all of them at once — a leaked
// slot would show as a lower peak, budget+1 leaked slots as a hang.
func TestReadBudgetSurvivesPanicAndError(t *testing.T) {
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panic=%v", panics), func(t *testing.T) {
			inBubble(t, func(t *testing.T) {
				inner, err := storage.NewDataSource(testSpec())
				if err != nil {
					t.Fatal(err)
				}
				good := &countingSource{inner: inner, latency: 50 * time.Millisecond}
				good.reset()
				src := &flakySource{ByteSource: good, panics: panics}
				src.failing.Store(true)
				srv, get := gatherFixture(t, src)
				for _, ids := range [][]dataset.SampleID{missRange(1000, backendReadBudget), missRange(1100, 1)} {
					if err := get(ids); err == nil {
						t.Fatalf("a %d-miss batch against a failing backend succeeded", len(ids))
					}
				}
				if n := len(srv.readSlots); n != 0 {
					t.Fatalf("%d budget slots still held after every read failed", n)
				}
				src.failing.Store(false)
				getAll(t, get, missRange(1200, 64))
				if peak, _ := good.marks(); peak != backendReadBudget {
					t.Fatalf("after %d failed reads a 64-miss batch peaked at %d concurrent fetches, want the whole budget %d",
						backendReadBudget+1, peak, backendReadBudget)
				}
				if n := srv.flight.Inflight(); n != 0 {
					t.Fatalf("%d singleflight keys still in flight", n)
				}
			})
		})
	}
}

// heldSource announces every Fetch on entered and holds it until the test
// sends (or closes) release.
type heldSource struct {
	ByteSource
	entered chan dataset.SampleID
	release chan struct{}
}

func (h *heldSource) Fetch(id dataset.SampleID) ([]byte, error) {
	h.entered <- id
	<-h.release
	return h.ByteSource.Fetch(id)
}

// requireSlotWaiters waits for a quiet point and fails unless exactly n
// goroutines are parked there on the budget's channel inside readBackend
// (read off the goroutine dump: a parked sender is the one state that proves
// a request has joined the queue).
func requireSlotWaiters(t *testing.T, n int) {
	t.Helper()
	vt.Wait()
	buf := make([]byte, 1<<20)
	got := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		if bytes.Contains(header, []byte("[chan send")) && bytes.Contains(g, []byte("(*Server).readBackend")) {
			got++
		}
	}
	if got != n {
		t.Fatalf("%d goroutines waiting for a budget slot, want %d", got, n)
	}
}

// TestReadBudgetIsFIFO: slots are granted in arrival order. With every slot
// held, request A queues, then request B; each slot that frees goes to A
// first, then to B — a later arrival never overtakes an earlier one.
func TestReadBudgetIsFIFO(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		inner, err := storage.NewDataSource(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		src := &heldSource{ByteSource: inner, entered: make(chan dataset.SampleID, 128), release: make(chan struct{})}
		_, get := gatherFixture(t, src)
		var wg sync.WaitGroup
		start := func(ids []dataset.SampleID) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := get(ids); err != nil {
					t.Error(err)
				}
			}()
		}
		start(missRange(1000, backendReadBudget))
		for i := 0; i < backendReadBudget; i++ {
			<-src.entered
		}
		const a, b = dataset.SampleID(1500), dataset.SampleID(1600)
		start([]dataset.SampleID{a})
		requireSlotWaiters(t, 1)
		start([]dataset.SampleID{b})
		requireSlotWaiters(t, 2)
		for _, want := range []dataset.SampleID{a, b} {
			src.release <- struct{}{}
			if got := <-src.entered; got != want {
				t.Fatalf("a freed slot went to the read of sample %d, want %d (arrival order)", got, want)
			}
		}
		close(src.release)
		wg.Wait()
	})
}

// TestScatterRechecksResidencyFirst pins the order on the batched peer plane:
// a led key whose payload a racing fetch or prefetch stored between the
// request's miss scan and its Begin is finished from the store, before — and
// without — the directory multi-lookup.
func TestScatterRechecksResidencyFirst(t *testing.T) {
	srv := newUnstartedServer(t, nil)
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
	if rest := srv.scatterToPeers(getServeScratch(), keys, obs.TraceCtx{}, time.Time{}); len(rest) != 0 {
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
