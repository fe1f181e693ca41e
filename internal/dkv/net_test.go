package dkv

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/retry"
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
	if err := wire.WritePayload(conn, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != statusErr {
		t.Fatalf("bad opcode answered %d", resp[0])
	}
}

func TestDirServerCloseUnblocks(t *testing.T) {
	dir := NewDirectory()
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-errc:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
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
			go srv.serveConn(conn)
		}
	}()

	policy := retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
	c, err := DialDirPolicy(ln.Addr().String(), time.Second, policy)
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
