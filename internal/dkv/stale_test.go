package dkv

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"icache/internal/overload"
	"icache/internal/wire"
)

// TestDirClientTimeoutDiscardsReadAhead times a call out in the middle of
// its response: the first connection answers with a lie ("id is owned by
// node 77") whose prefix and first body bytes arrive inside the client's
// RPC timeout — so they sit in the connection's read-ahead buffer when the
// call gives up — and whose rest arrives after it. Every later connection is
// the real directory. The following calls must be answered by the real
// directory only: the redial the timeout forces discards the old frame
// reader with the old connection, so no stale byte can be matched to (or
// spliced into) a later response.
//
// (TestDirClientRidesThroughMidFrameCloses is the restart-shaped twin: a
// server dying two bytes into a response leaves those bytes in the reader,
// and the retry's redial must drop them the same way.)
func TestDirClientTimeoutDiscardsReadAhead(t *testing.T) {
	dir := NewDirectory()
	dir.Claim(1, 9)
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	lie := wire.GetBuffer()
	lie.U8(statusOK)
	lie.U8(1)
	lie.I64(77)
	const early = 7 // the 4-byte prefix and 3 of the 10 body bytes
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
				var whole bytes.Buffer
				wire.WriteFrame(&whole, lie) // a bytes.Buffer cannot fail
				conn.Write(whole.Next(early))
				<-timedOut
				conn.Write(whole.Bytes())
			}()
		}
	}()

	c, err := DialDir(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRPCTimeout(50 * time.Millisecond)

	if _, _, err := c.Lookup(5); !isTimeoutErr(err) && !errors.Is(err, overload.ErrExpired) {
		t.Fatalf("lookup against a stalled response: %v, want a timeout", err)
	}
	close(timedOut)
	<-staleSent // the rest of the lie is now queued on the old connection

	if node, found, err := c.Lookup(1); err != nil || !found || node != 9 {
		t.Fatalf("lookup after the timeout: (%v, %v, %v), want node 9 from the real directory", node, found, err)
	}
	if _, found, err := c.Lookup(5); err != nil || found {
		t.Fatalf("lookup of an unowned id: found=%v err=%v; the stale response leaked", found, err)
	}
	if _, redials := c.Resilience(); redials != 1 {
		t.Fatalf("%d redials, want exactly the one the timeout forces", redials)
	}
}
