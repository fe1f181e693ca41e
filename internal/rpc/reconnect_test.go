package rpc

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
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

// TestSerialClientTimeoutDiscardsReadAhead times a serial-transport call out
// in the middle of its response: the first connection answers opStats with a
// lie (Hits = 777) whose first bytes arrive inside the RPC timeout — so they
// sit in the connection's read-ahead buffer when the call gives up — and
// whose rest arrives after it; every later connection is the real server.
// The next call must dial fresh and decode only the real server's answer:
// the timeout drops the frame reader together with the connection.
func TestSerialClientTimeoutDiscardsReadAhead(t *testing.T) {
	srv, _, _ := startServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	const early = 20 // the prefix and the first 16 of the 49 body bytes
	timedOut := make(chan struct{})
	staleSent := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i > 0 {
				go srv.serveConn(conn)
				continue
			}
			go func() {
				defer conn.Close()
				defer close(staleSent)
				if _, err := wire.ReadFrame(conn); err != nil {
					return
				}
				var lie bytes.Buffer
				wire.WritePayload(&lie, encodeStatsResponse(Stats{Hits: 777})) // a bytes.Buffer cannot fail
				conn.Write(lie.Next(early))
				<-timedOut
				conn.Write(lie.Bytes())
			}()
		}
	}()

	c, err := DialConfigured(ln.Addr().String(), DialConfig{Timeout: time.Second, Policy: noRetryPolicy(),
		DisableMux: true, RPCTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Stats(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("stats against a stalled response: %v, want a deadline error", err)
	}
	close(timedOut)
	<-staleSent // the rest of the lie is now queued on the old connection

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after the timeout: %v", err)
	}
	if st.Hits != 0 {
		t.Fatalf("stats after the timeout report %d hits; the stale response leaked", st.Hits)
	}
	if _, redials := c.Resilience(); redials != 1 {
		t.Fatalf("%d redials, want exactly the one the timeout forces", redials)
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
	if !c.Muxed() {
		t.Fatal("handshake did not negotiate mux")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping whose response began arriving with the handshake reply: %v", err)
	}
}
