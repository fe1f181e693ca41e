package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/wire"
)

// TestClientRidesThroughServerRestart kills the server between requests and
// restarts it on the same address; the client's next call must succeed via
// its transparent redial.
func TestClientRidesThroughServerRestart(t *testing.T) {
	spec := testSpec()
	mkServer := func() (*Server, net.Listener) {
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
		return srv, nil
	}

	srv1, _ := mkServer()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go srv1.Serve(ln1)

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Kill and restart on the same port.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _ := mkServer()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()

	samples, err := c.GetBatch([]dataset.SampleID{1, 2, 3})
	if err != nil {
		t.Fatalf("request after restart failed despite reconnect: %v", err)
	}
	if len(samples) != 3 {
		t.Fatalf("served %d of 3", len(samples))
	}
}

// TestClientSurvivesRepeatedCrashRestart pushes the restart scenario to
// three consecutive crash/restart cycles with a GetBatch in flight during
// each outage window: the request launches while the server is down and
// must ride the retry/backoff schedule into the restarted instance.
func TestClientSurvivesRepeatedCrashRestart(t *testing.T) {
	spec := testSpec()
	mkServer := func() *Server {
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
		return srv
	}
	listenOn := func(addr string) net.Listener {
		// The previous listener just closed; the port can take a moment to
		// become bindable again.
		var ln net.Listener
		var err error
		for i := 0; i < 50; i++ {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				return ln
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("rebind %s: %v", addr, err)
		return nil
	}

	srv := mkServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	// A patient policy: each outage lasts tens of milliseconds, so the
	// client needs backoff budget beyond the default.
	policy := retry.Policy{MaxAttempts: 60, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 25 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
	c, err := DialPolicy(addr, time.Second, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := []dataset.SampleID{1, 2, 3}
	for cycle := 0; cycle < 3; cycle++ {
		// Crash.
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
		// Launch a request into the outage.
		inflight := make(chan error, 1)
		go func() {
			_, err := c.GetBatch(ids)
			inflight <- err
		}()
		// Restart after a real downtime window.
		time.Sleep(20 * time.Millisecond)
		srv = mkServer()
		ln = listenOn(addr)
		go srv.Serve(ln)

		if err := <-inflight; err != nil {
			t.Fatalf("cycle %d: in-flight request lost across restart: %v", cycle, err)
		}
		// And the connection must be fully serviceable again.
		samples, err := c.GetBatch(ids)
		if err != nil {
			t.Fatalf("cycle %d: post-restart request failed: %v", cycle, err)
		}
		if len(samples) != len(ids) {
			t.Fatalf("cycle %d: served %d of %d", cycle, len(samples), len(ids))
		}
		for _, s := range samples {
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("cycle %d: corrupt payload after restart: %v", cycle, err)
			}
		}
	}
	defer srv.Close()

	retries, redials := c.Resilience()
	if retries < 3 || redials < 3 {
		t.Fatalf("resilience counters (retries=%d redials=%d) too low for 3 restart cycles", retries, redials)
	}
}

func TestClosedClientDoesNotRedial(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("closed client served a request")
	}
}

// TestHandshakeReadAheadReachesMuxSession pins the rule that a connection
// has ONE frame reader: the server here sends, in a single write, its
// handshake reply and the head of the response to the client's first mux
// request (id 0), so the client's handshake read pulls both into the
// read-ahead buffer; the tail follows once the request is in. The mux
// session must keep reading through that same reader — a session that
// started a fresh one would lose the head and misparse the tail.
func TestHandshakeReadAheadReachesMuxSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil { // the handshake ping
			return
		}
		var hello, pong buffer
		hello.u8(statusOK)
		hello.u32(capMux)
		pong.u8(opMuxReq)
		pong.u32(0)
		pong.u8(statusOK)
		var out bytes.Buffer
		wire.WritePayload(&out, hello.payload()) // a bytes.Buffer cannot fail
		wire.WritePayload(&out, pong.payload())
		const tail = 3
		conn.Write(out.Next(out.Len() - tail))
		if _, err := wire.ReadFrame(conn); err != nil { // the ping: id 0 is now awaited
			return
		}
		conn.Write(out.Bytes())
		wire.ReadFrame(conn) // hold the connection until the client closes
	}()

	c, err := DialConfigured(ln.Addr().String(), DialConfig{Timeout: time.Second, Policy: noRetryPolicy(),
		RPCTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping whose response began arriving with the handshake reply: %v", err)
	}
}

// TestDialRejectsServerWithoutMux stands up a listener that answers the
// capability ping with a bare statusOK — what a binary that predates the
// mux protocol would send. There is no other transport to fall back to, so
// the dial must fail: at once (the default retry policy would otherwise
// keep dialing for seconds), naming the missing capability, and leaving
// neither a goroutine nor a connection behind.
func TestDialRejectsServerWithoutMux(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := make(chan int)
	clientClosed := make(chan error, 1)
	go func() {
		n := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				accepts <- n
				return
			}
			n++
			go func() {
				defer conn.Close()
				if _, err := wire.ReadFrame(conn); err != nil { // the handshake ping
					clientClosed <- err
					return
				}
				wire.WritePayload(conn, []byte{statusOK})
				_, err := wire.ReadFrame(conn) // EOF once the client hangs up
				clientClosed <- err
			}()
		}
	}()

	const timeout = time.Second
	t0 := time.Now()
	c, err := DialConfigured(ln.Addr().String(), DialConfig{Timeout: timeout})
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a server without the mux capability")
	}
	if !errors.Is(err, errNoMux) || !strings.Contains(err.Error(), "mux capability") {
		t.Fatalf("dial error %q does not name the missing mux capability", err)
	}
	if el := time.Since(t0); el > timeout {
		t.Fatalf("dial took %v to fail, want within DialConfig.Timeout (%v)", el, timeout)
	}
	select {
	case err := <-clientClosed:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("fake server's read ended with %v, want EOF from the client closing its connection", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the failed dial left its connection open")
	}
	ln.Close()
	if n := <-accepts; n != 1 {
		t.Fatalf("%d connections for one failed dial; an incompatible server must not be retried", n)
	}
}
