package rpc

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/storage"
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
