package transport_test

// The client core against servers that fail on purpose: a session torn under
// a call, a server whose address stops answering, a listener that never
// answers at all. Everything else the client does is tested through the two
// protocols that ride it: the reconnect, chaos and overload suites of
// internal/rpc and the DirClient suites of internal/dkv.

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/leakcheck"
	"icache/internal/obs"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/wire"
)

// schedSlack is what the deadline tests allow the scheduler (and -race) on
// top of the bound under test.
const schedSlack = 250 * time.Millisecond

// hostile accepts connections on a loopback listener and hands each one, in
// order, to serve; Close closes the listener and every connection it
// accepted.
type hostile struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newHostile(t *testing.T, serve func(i int, conn net.Conn)) *hostile {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	leakcheck.Check(t)
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
}

// TestRetryRedialStaysWithinTheCallDeadline: the server dies under a live
// session and its address keeps accepting without answering (a stopped
// process, a half-open port). A call with a 50 ms budget retries, redials and
// waits for the new session's ping — and still returns within its budget,
// not after the 5 s dial timeout.
func TestRetryRedialStaysWithinTheCallDeadline(t *testing.T) {
	leakcheck.Check(t)
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
	if el > budget+schedSlack {
		t.Fatalf("call with a %v budget returned after %v", budget, el)
	}
	if _, redials := c.Resilience(); redials != 1 {
		t.Fatalf("%d redials, want the one the retry made", redials)
	}
}

// TestDialBoundsASilentServer: a listener that accepts and never answers
// fails the dial within DialConfig.Timeout — the ping that proves the session
// is bounded by it — and the failed dial leaves no goroutine behind.
func TestDialBoundsASilentServer(t *testing.T) {
	leakcheck.Check(t)
	h := newHostile(t, silent)
	const timeout = 100 * time.Millisecond
	t0 := time.Now()
	c, err := transport.Dial(h.addr(), transport.DialConfig{Timeout: timeout, Policy: retry.None()}, nil)
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a server that never answers")
	}
	if el := time.Since(t0); el > timeout+schedSlack {
		t.Fatalf("dial took %v to fail, want within DialConfig.Timeout (%v)", el, timeout)
	}
	if !errors.Is(err, transport.ErrDeadlineExceeded) {
		t.Fatalf("dial error %v, want the ping's timeout", err)
	}
}
