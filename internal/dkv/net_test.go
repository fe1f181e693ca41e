package dkv

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
	"icache/internal/wire"
)

func startDirServer(t *testing.T) (string, *Directory) {
	t.Helper()
	dir := NewDirectory()
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), dir
}

func dialDir(t *testing.T, addr string) *DirClient {
	t.Helper()
	c, err := DialDir(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDirOverTCP(t *testing.T) {
	addr, _ := startDirServer(t)
	c := dialDir(t, addr)

	if _, found, err := c.Lookup(5); err != nil || found {
		t.Fatalf("lookup on empty dir: %v/%v", found, err)
	}
	ok, err := c.Claim(5, 1)
	if err != nil || !ok {
		t.Fatalf("claim: %v/%v", ok, err)
	}
	node, found, err := c.Lookup(5)
	if err != nil || !found || node != 1 {
		t.Fatalf("lookup after claim: %v/%v/%v", node, found, err)
	}
	// Second node's claim must lose.
	ok, err = c.Claim(5, 2)
	if err != nil || ok {
		t.Fatalf("conflicting claim won: %v/%v", ok, err)
	}
	n, err := c.Len()
	if err != nil || n != 1 {
		t.Fatalf("len: %d/%v", n, err)
	}
	// Release by non-owner fails, by owner succeeds.
	if ok, _ := c.Release(5, 2); ok {
		t.Fatal("non-owner release succeeded")
	}
	if ok, _ := c.Release(5, 1); !ok {
		t.Fatal("owner release failed")
	}
	if _, found, _ := c.Lookup(5); found {
		t.Fatal("released entry still present")
	}
}

func TestDirConcurrentClientsOneWinner(t *testing.T) {
	addr, _ := startDirServer(t)
	const nodes = 8
	var wg sync.WaitGroup
	wins := make([]bool, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := DialDir(addr, time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			ok, err := c.Claim(42, NodeID(n))
			wins[n] = ok && err == nil
		}(n)
	}
	wg.Wait()
	winners := 0
	for _, w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners over TCP, want 1", winners)
	}
}

func TestDirServerRejectsBadOpcode(t *testing.T) {
	addr, _ := startDirServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WritePayload(conn, transporttest.MuxWrap(1, []byte{0xEE})); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp[transport.MuxHeaderLen] != transport.StatusErr {
		t.Fatalf("bad opcode answered %d", resp[transport.MuxHeaderLen])
	}
}

// TestDirServerCloseUnblocks: Close returns a Serve blocked in Accept.
func TestDirServerCloseUnblocks(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		srv := NewDirServer(NewDirectory())
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(transporttest.NewNetwork(t).ListenAny()) }()
		vt.Wait() // Serve is blocked in Accept
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-errc:
		case <-time.After(2 * time.Second):
			t.Fatal("Serve did not return after Close")
		}
	})
}

// TestDirClientRidesThroughMidFrameCloses runs the client against a server
// that kills the first few connections in the middle of a response frame
// (half a length header, then close). The client's retry/redial must absorb
// the abuse and land the operation on the first healthy connection.
func TestDirClientRidesThroughMidFrameCloses(t *testing.T) {
	dir := NewDirectory()
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	const abusive = 3
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i < abusive {
				go func(c net.Conn) {
					defer c.Close()
					buf := make([]byte, 5)
					io.ReadFull(c, buf)         // swallow part of the request
					c.Write([]byte{0x00, 0x00}) // half a frame header, then die
				}(conn)
				continue
			}
			go srv.t.ServeConn(conn)
		}
	}()

	policy := retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
	c, err := DialDirConfigured(ln.Addr().String(), DialConfig{Timeout: time.Second, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ok, err := c.Claim(7, 1)
	if err != nil || !ok {
		t.Fatalf("claim through mid-frame closes: (%v, %v)", ok, err)
	}
	node, found, err := c.Lookup(7)
	if err != nil || !found || node != 1 {
		t.Fatalf("lookup after abuse: (%v, %v, %v)", node, found, err)
	}
	retries, redials := c.Resilience()
	if retries == 0 || redials < abusive {
		t.Fatalf("resilience counters (retries=%d redials=%d) inconsistent with %d killed connections",
			retries, redials, abusive)
	}
	if claims, _ := dir.Stats(); claims != 1 {
		t.Fatalf("directory recorded %d claims; retries of an idempotent claim must not multiply state", claims)
	}
}

// TestDirClientPipelines: N concurrent LookupBatch calls on ONE DirClient
// against a server that holds every reply until it has read all N requests.
// It completes only if N requests are in flight on one connection at once —
// a client that holds a lock across write → read (one request in flight,
// ever) deadlocks against this server until its calls time out.
func TestDirClientPipelines(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const n = 8
		ln := transporttest.NewNetwork(t).ListenAny()
		defer ln.Close()
		served := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			defer conn.Close()
			if err := answerDialPing(conn); err != nil {
				served <- err
				return
			}
			var held [][]byte
			for len(held) < n {
				req, err := wire.ReadFrame(conn)
				if err != nil {
					served <- fmt.Errorf("after %d of %d requests: %w", len(held), n, err)
					return
				}
				held = append(held, req)
			}
			for _, req := range held { // "id 7 is unowned", inside each request's own envelope
				var e wire.Buffer
				e.B = append(e.B, req[:transport.MuxHeaderLen]...)
				e.U8(transport.StatusOK)
				e.U32(1)
				e.U8(0)
				if err := wire.WritePayload(conn, e.B); err != nil {
					served <- err
					return
				}
			}
			_, err = wire.ReadFrame(conn) // EOF once the client closes
			if errors.Is(err, io.EOF) {
				err = nil
			}
			served <- err
		}()

		c, err := DialDirConfigured(ln.Addr().String(), DialConfig{Timeout: time.Second, Policy: retry.None(), RPCTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				owners, err := c.LookupBatch([]dataset.SampleID{7})
				if err == nil && (len(owners) != 1 || owners[0].Found) {
					err = fmt.Errorf("answered %+v, want one unowned entry", owners)
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		c.Close()
		for i, err := range errs {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
		if err := <-served; err != nil {
			t.Fatalf("server: %v", err)
		}
	})
}

// TestShardedDialBoundsASilentReplica: one of three replicas answers the
// dial's ping and then accepts every request without ever answering. The dial
// configuration reaches every replica's client, so the call that routes to
// it returns within the per-call bound, its shard fails over to a survivor,
// and calls that route to the other two replicas were never held up behind
// it.
func TestShardedDialBoundsASilentReplica(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const silent, rpcTimeout = ReplicaID(1), 100 * time.Millisecond
		n := transporttest.NewNetwork(t)
		addrs := make([]string, 3)
		for r := range addrs {
			ln := n.ListenAny()
			addrs[r] = ln.Addr().String()
			if ReplicaID(r) != silent {
				srv := NewDirServer(NewDirectory())
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				continue
			}
			t.Cleanup(func() { ln.Close() })
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						if answerDialPing(conn) == nil {
							io.Copy(io.Discard, conn) // reads everything, answers nothing
						}
					}()
				}
			}()
		}
		s, err := DialSharded(addrs, DialConfig{Timeout: time.Second, Policy: retry.None(), RPCTimeout: rpcTimeout,
			Breaker: &overload.BreakerConfig{Threshold: 1}}, ShardedConfig{FailoverTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		// One id per replica under the full view.
		view := s.View()
		idOf := map[ReplicaID]dataset.SampleID{}
		for id := dataset.SampleID(0); len(idOf) < len(addrs); id++ {
			if r, _ := view.Owner(id); idOf[r] == 0 {
				idOf[r] = id
			}
		}

		// The healthy replicas answer at once on the bubble's clock while a call
		// to the silent one is waiting out its bound.
		stuck := make(chan error, 1)
		go func() {
			_, err := s.LookupBatch([]dataset.SampleID{idOf[silent]})
			stuck <- err
		}()
		for r, id := range idOf {
			if r == silent {
				continue
			}
			t0 := time.Now()
			if _, err := s.LookupBatch([]dataset.SampleID{id}); err != nil {
				t.Fatalf("lookup on healthy replica %d: %v", r, err)
			}
			if el := time.Since(t0); el != 0 {
				t.Fatalf("lookup on healthy replica %d took %v: it waited behind the silent one", r, el)
			}
		}
		t0 := time.Now()
		select {
		case err := <-stuck:
			if err != nil {
				t.Fatalf("lookup routed to the silent replica: %v, want it failed over to a survivor", err)
			}
		case <-time.After(10 * rpcTimeout):
			t.Fatalf("lookup routed to the silent replica still waiting after %v (per-call bound %v)", time.Since(t0), rpcTimeout)
		}
		if st := s.Ring(); st.Failovers != 1 || st.LiveReplicas != 2 {
			t.Fatalf("ring after the timeout: %+v, want the silent replica failed over", st)
		}
	})
}

// TestNoOpcodeCollidesWithTheTransport: a directory opcode equal to a
// reserved one would never reach the handler (three did, before the
// directory moved onto the transport, and were renumbered).
func TestNoOpcodeCollidesWithTheTransport(t *testing.T) {
	for name, op := range map[string]byte{
		"opOwnBatch": opOwnBatch, "opLen": opLen, "opHeartbeat": opHeartbeat,
		"opOwnedBy": opOwnedBy, "opLookupBatch": opLookupBatch, "opRegister": opRegister,
		"opListNodes": opListNodes, "opPurgeDead": opPurgeDead,
	} {
		switch op {
		case transport.OpPing, transport.OpTraced, transport.OpMux, transport.OpDeadline:
			t.Errorf("%s = %d is reserved by the transport", name, op)
		}
	}
}
