package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"icache/internal/vt"
)

func TestDoBasic(t *testing.T) {
	var g Group
	v, err, shared := g.Do(1, func() ([]byte, error) { return []byte("x"), nil })
	if err != nil || string(v) != "x" || shared {
		t.Fatalf("got %q, %v, shared=%v", v, err, shared)
	}
	if g.Inflight() != 0 {
		t.Fatalf("inflight after completion: %d", g.Inflight())
	}
}

func TestDoError(t *testing.T) {
	var g Group
	want := errors.New("boom")
	_, err, _ := g.Do(2, func() ([]byte, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		var g Group
		var execs int64
		release := make(chan struct{})
		started := make(chan struct{})

		const waiters = 16
		var wg sync.WaitGroup
		vals := make([][]byte, waiters)
		sharedCount := int64(0)
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err, shared := g.Do(7, func() ([]byte, error) {
					atomic.AddInt64(&execs, 1)
					close(started)
					<-release
					return []byte("payload"), nil
				})
				if err != nil {
					t.Error(err)
				}
				if shared {
					atomic.AddInt64(&sharedCount, 1)
				}
				vals[i] = v
			}(i)
		}
		<-started
		vt.Wait() // every other caller has joined the in-flight call
		close(release)
		wg.Wait()

		if got := atomic.LoadInt64(&execs); got != 1 {
			t.Fatalf("fn executed %d times, want 1", got)
		}
		// release waits until every caller has joined: all but the one that
		// executed share its result.
		if got := atomic.LoadInt64(&sharedCount); got != waiters-1 {
			t.Fatalf("shared=%d, want %d", got, waiters-1)
		}
		for i, v := range vals {
			if string(v) != "payload" {
				t.Fatalf("waiter %d got %q", i, v)
			}
		}
	})
}

func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group
	var execs int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err, _ := g.Do(int64(i), func() ([]byte, error) {
				atomic.AddInt64(&execs, 1)
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt64(&execs); got != 8 {
		t.Fatalf("fn executed %d times, want 8", got)
	}
}

func TestSequentialCallsReExecute(t *testing.T) {
	var g Group
	var execs int64
	for i := 0; i < 3; i++ {
		g.Do(9, func() ([]byte, error) {
			atomic.AddInt64(&execs, 1)
			return nil, nil
		})
	}
	if execs != 3 {
		t.Fatalf("sequential calls coalesced: execs=%d", execs)
	}
}

// TestBeginFinishLeaderAndWaiters exercises the batch-orchestrator API
// directly: one Begin wins leadership, later Begins join as waiters, and
// one Finish releases everyone with the shared result.
func TestBeginFinishLeaderAndWaiters(t *testing.T) {
	var g Group
	c, leader := g.Begin(3)
	if !leader {
		t.Fatal("first Begin not leader")
	}
	c2, leader2 := g.Begin(3)
	if leader2 {
		t.Fatal("second Begin also leader")
	}
	if c2 != c {
		t.Fatal("waiter joined a different call")
	}

	const waiters = 8
	var wg, begun sync.WaitGroup
	begun.Add(waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, lead := g.Begin(3)
			begun.Done()
			if lead {
				t.Error("concurrent Begin stole leadership")
				return
			}
			v, err := wc.Wait()
			if err != nil || string(v) != "batch" {
				t.Errorf("waiter got %q, %v", v, err)
			}
		}()
	}
	begun.Wait() // every waiter joined before the leader resolves
	g.Finish(3, c, []byte("batch"), nil)
	if v, err := c2.Wait(); err != nil || string(v) != "batch" {
		t.Fatalf("pre-finish waiter got %q, %v", v, err)
	}
	wg.Wait()
	if g.Inflight() != 0 {
		t.Fatalf("inflight after Finish: %d", g.Inflight())
	}
}

// TestBeginFinishErrorPropagates delivers a leader's error to every waiter.
func TestBeginFinishErrorPropagates(t *testing.T) {
	var g Group
	c, leader := g.Begin(4)
	if !leader {
		t.Fatal("not leader")
	}
	w, _ := g.Begin(4)
	want := errors.New("fetch failed")
	g.Finish(4, c, nil, want)
	if _, err := w.Wait(); !errors.Is(err, want) {
		t.Fatalf("waiter error: %v", err)
	}
}

// TestFinishRetiresKey pins that a finished key starts fresh: the next
// Begin must win leadership, not join the retired call.
func TestFinishRetiresKey(t *testing.T) {
	var g Group
	c, _ := g.Begin(5)
	g.Finish(5, c, []byte("old"), nil)
	c2, leader := g.Begin(5)
	if !leader {
		t.Fatal("Begin after Finish did not win leadership")
	}
	if c2 == c {
		t.Fatal("retired call reused")
	}
	g.Finish(5, c2, []byte("new"), nil)
	if v, _ := c2.Wait(); string(v) != "new" {
		t.Fatalf("got %q", v)
	}
}

// TestBeginManyKeysBatchResolution models the scatter-gather miss path: a
// batch orchestrator Begins many keys, resolves them out of order in one
// sweep, and every per-key waiter sees exactly its own result.
func TestBeginManyKeysBatchResolution(t *testing.T) {
	var g Group
	const n = 32
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		c, leader := g.Begin(int64(i))
		if !leader {
			t.Fatalf("key %d not led", i)
		}
		calls[i] = c
	}
	var wg, begun sync.WaitGroup
	begun.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, leader := g.Begin(int64(i))
			begun.Done()
			if leader {
				t.Errorf("key %d: waiter stole leadership", i)
				return
			}
			v, err := c.Wait()
			if err != nil || len(v) != 1 || v[0] != byte(i) {
				t.Errorf("key %d got %v, %v", i, v, err)
			}
		}(i)
	}
	begun.Wait()                  // every waiter joined before resolution starts
	for i := n - 1; i >= 0; i-- { // resolve in reverse order
		g.Finish(int64(i), calls[i], []byte{byte(i)}, nil)
	}
	wg.Wait()
	if g.Inflight() != 0 {
		t.Fatalf("inflight after batch: %d", g.Inflight())
	}
}

// TestFinishBorrowedCopiesOnlyForJoinedCalls pins who reads a borrowed result:
// a call nobody joined hands the leader its own memory back; a call anyone
// joined — another goroutine before Finish, or the leader itself naming the key
// twice in one request — hands every holder a copy that outlives the leader's
// reuse of that memory; a Begin after Finish starts a fresh, unjoined call;
// and plain Finish keeps sharing by reference.
func TestFinishBorrowedCopiesOnlyForJoinedCalls(t *testing.T) {
	var g Group
	same := func(a, b []byte) bool { return &a[0] == &b[0] }
	buf := []byte("answer-1")

	alone, _ := g.Begin(1)
	g.FinishBorrowed(1, alone, buf, nil)
	if v, err := alone.Wait(); err != nil || !same(v, buf) {
		t.Fatalf("an unjoined call got (%q, %v): want the leader's own memory, not a copy", v, err)
	}

	lead, _ := g.Begin(1) // after Finish: a fresh call, the earlier one's state is gone
	got := make(chan []byte)
	joiner, leader := g.Begin(1)
	if leader || joiner != lead {
		t.Fatal("a second Begin before Finish did not join the call")
	}
	go func() {
		v, _ := joiner.Wait()
		got <- v
	}()
	g.FinishBorrowed(1, lead, buf, nil)
	v, mine := <-got, mustWait(t, lead)
	copy(buf, "RECYCLED") // the leader reuses its buffer
	for who, p := range map[string][]byte{"the joiner": v, "the leader": mine} {
		if same(p, buf) || string(p) != "answer-1" {
			t.Fatalf("%s of a joined call holds %q (aliasing the leader's buffer: %v), want a copy of the answer", who, p, same(p, buf))
		}
	}

	dup, _ := g.Begin(2) // one request naming a key twice joins its own call
	if _, leader := g.Begin(2); leader {
		t.Fatal("duplicate Begin led")
	}
	g.FinishBorrowed(2, dup, buf, nil)
	if same(mustWait(t, dup), buf) {
		t.Fatal("a call its own leader joined kept the borrowed memory")
	}

	fresh, leader := g.Begin(1)
	if !leader {
		t.Fatal("Begin after Finish joined a finished call")
	}
	g.FinishBorrowed(1, fresh, buf, nil)
	if !same(mustWait(t, fresh), buf) {
		t.Fatal("a join of the previous call stuck to the next one")
	}

	shared, _ := g.Begin(3)
	g.Begin(3)
	g.Finish(3, shared, buf, nil)
	if !same(mustWait(t, shared), buf) {
		t.Fatal("Finish copied: its results are shared by reference")
	}
	if g.Inflight() != 0 {
		t.Fatalf("inflight at the end: %d", g.Inflight())
	}
}

func mustWait(t *testing.T, c *Call) []byte {
	t.Helper()
	v, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return v
}
