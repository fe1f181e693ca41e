package transport_test

// The client core against servers that fail on purpose: a session torn under
// a call, a server whose address stops answering, a listener that never
// answers at all. Each runs in a virtual-clock bubble on an in-memory
// network, so a deadline is met exactly and a goroutine the client leaves
// behind fails the test. Everything else the client does is tested through
// the two protocols that ride it: the reconnect, chaos and overload suites of
// internal/rpc and the DirClient suites of internal/dkv.

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
	"icache/internal/wire"
)

// hostile accepts connections on a new in-memory network and hands each one,
// in order, to serve; Close closes the listener and every connection it
// accepted.
type hostile struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newHostile(t *testing.T, serve func(i int, conn net.Conn)) *hostile {
	t.Helper()
	ln := transporttest.NewNetwork(t).ListenAny()
	h := &hostile{ln: ln}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			h.conns = append(h.conns, conn)
			h.mu.Unlock()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				serve(i, conn)
			}()
		}
	}()
	t.Cleanup(h.Close)
	return h
}

func (h *hostile) addr() string { return h.ln.Addr().String() }

func (h *hostile) conn(i int) net.Conn {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.conns[i]
}

func (h *hostile) Close() {
	h.ln.Close()
	h.mu.Lock()
	for _, c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
}

// silent reads everything a connection sends and answers nothing.
func silent(_ int, conn net.Conn) { io.Copy(io.Discard, conn) }

// TestRetryRidesAFreshGeneration: the server's end of a session closes while
// a call on it is being served. The call fails on that session and succeeds
// on its retry, which dials a new session generation and proves it with a
// ping before the request rides it: one retry, one redial.
func TestRetryRidesAFreshGeneration(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		arrived, release := make(chan struct{}), make(chan struct{})
		var served atomic.Int32
		srv := transport.NewServer(transport.Handler{
			Route: func(byte) transport.Route { return 0 },
			Serve: func(w transport.Response, req []byte, _ obs.TraceCtx, _ time.Time) error {
				if served.Add(1) == 1 {
					close(arrived)
					<-release
				}
				return w.Reply(func(e *wire.Buffer) error { return nil })
			},
		})
		h := newHostile(t, func(_ int, conn net.Conn) { srv.ServeConn(conn) })
		c, err := transport.Dial(h.addr(), transport.DialConfig{Timeout: time.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		defer close(release)

		done := make(chan error, 1)
		go func() {
			_, _, err := c.Call([]byte{opEcho}, time.Now().Add(5*time.Second))
			done <- err
		}()
		<-arrived
		h.conn(0).Close() // the session under the call
		if err := <-done; err != nil {
			t.Fatalf("call whose session was torn under it: %v, want it served on the retry", err)
		}
		if retries, redials := c.Resilience(); retries != 1 || redials != 1 {
			t.Fatalf("Resilience() = (%d retries, %d redials), want (1, 1)", retries, redials)
		}
		if n := served.Load(); n != 2 {
			t.Fatalf("the handler served %d requests, want the torn one and its retry", n)
		}
	})
}

// TestRetryRedialStaysWithinTheCallDeadline: the server dies under a live
// session and its address keeps accepting without answering (a stopped
// process, a half-open port). A call with a 50 ms budget retries, redials and
// waits for the new session's ping — and returns at its budget (and the one
// backoff that follows the timed-out redial), not after the 5 s dial timeout.
func TestRetryRedialStaysWithinTheCallDeadline(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		srv, _ := stubServer()
		h := newHostile(t, func(i int, conn net.Conn) {
			if i == 0 {
				srv.ServeConn(conn)
				return
			}
			silent(i, conn)
		})
		c, err := transport.Dial(h.addr(), transport.DialConfig{Timeout: 5 * time.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Call([]byte{opEcho}, time.Time{}); err != nil {
			t.Fatal(err)
		}

		h.conn(0).Close()
		const budget = 50 * time.Millisecond
		t0 := time.Now()
		_, _, err = c.Call([]byte{opEcho}, t0.Add(budget))
		el := time.Since(t0)
		if !errors.Is(err, transport.ErrDeadlineExceeded) {
			t.Fatalf("call against a dead server: %v, want ErrDeadlineExceeded", err)
		}
		// The redial that times out at the deadline is still followed by a
		// backoff (retry.Default's second: 10 ms ± 20 %) before the budget
		// check ends the call, so the bound is one backoff past the budget.
		if el > budget+12*time.Millisecond {
			t.Fatalf("call with a %v budget returned after %v", budget, el)
		}
		if _, redials := c.Resilience(); redials != 1 {
			t.Fatalf("%d redials, want the one the retry made", redials)
		}
	})
}

// TestDialBoundsASilentServer: a listener that accepts and never answers
// fails the dial within DialConfig.Timeout — the ping that proves the session
// is bounded by it — and the failed dial leaves no goroutine behind.
func TestDialBoundsASilentServer(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		h := newHostile(t, silent)
		const timeout = 100 * time.Millisecond
		t0 := time.Now()
		c, err := transport.Dial(h.addr(), transport.DialConfig{Timeout: timeout, Policy: retry.None()}, nil)
		if err == nil {
			c.Close()
			t.Fatal("dial succeeded against a server that never answers")
		}
		if el := time.Since(t0); el > timeout {
			t.Fatalf("dial took %v to fail, want within DialConfig.Timeout (%v)", el, timeout)
		}
		if !errors.Is(err, transport.ErrDeadlineExceeded) {
			t.Fatalf("dial error %v, want the ping's timeout", err)
		}
	})
}
