package dkv

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"icache/internal/leakcheck"
	"icache/internal/transport"
	"icache/internal/wire"
)

// answerDialPing plays the server's half of a dial on a hand-driven
// connection: it answers the muxed ping that proves the client's session.
func answerDialPing(conn net.Conn) error {
	ping, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	if len(ping) != transport.MuxHeaderLen+1 || ping[0] != transport.OpMux || ping[transport.MuxHeaderLen] != transport.OpPing {
		return fmt.Errorf("dial sent %x, want a muxed ping", ping)
	}
	return wire.WritePayload(conn, append(ping[:transport.MuxHeaderLen], transport.StatusOK))
}

// TestDirClientTimeoutDiscardsReadAhead times a call out in the middle of
// its response: the connection answers the first lookup with a lie ("id is
// owned by node 77") whose prefix and first body bytes arrive inside the
// client's RPC timeout — so they sit in the connection's read-ahead buffer
// when the call gives up — and whose rest arrives after it. From then on the
// SAME connection is served by the real directory. The following calls must
// be answered by the real directory only: the timed-out call's request id
// was forgotten, so when the demux reader finally completes the stale frame
// it matches no caller and is dropped whole — no stale byte is matched to,
// or spliced into, a later response — and the connection was never torn
// down: zero redials.
//
// (TestDirClientRidesThroughMidFrameCloses is the restart-shaped twin: a
// server dying two bytes into a response leaves those bytes in the reader,
// and there the redial drops them with the connection.)
func TestDirClientTimeoutDiscardsReadAhead(t *testing.T) {
	leakcheck.Check(t)
	dir := NewDirectory()
	dir.Claim(1, 9)
	srv := NewDirServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	const early = 7 // the 4-byte prefix and 3 of the 19 body bytes
	timedOut := make(chan struct{})
	staleSent := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if answerDialPing(conn) != nil {
			conn.Close()
			return
		}
		req, err := wire.ReadFrame(conn) // the first lookup, in its mux envelope
		if err != nil {
			conn.Close()
			return
		}
		lie := wire.GetBuffer()
		lie.B = append(lie.B, req[:transport.MuxHeaderLen]...)
		lie.U8(transport.StatusOK)
		lie.U32(1)
		lie.U8(1)
		lie.I64(77)
		var whole bytes.Buffer
		wire.WriteFrame(&whole, lie) // a bytes.Buffer cannot fail
		conn.Write(whole.Next(early))
		<-timedOut
		conn.Write(whole.Bytes())
		close(staleSent) // the rest of the lie is now queued ahead of any answer
		srv.t.ServeConn(conn)
	}()

	c, err := DialDirConfigured(ln.Addr().String(), DialConfig{Timeout: time.Second, RPCTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(5); !errors.Is(err, transport.ErrDeadlineExceeded) {
		t.Fatalf("lookup against a stalled response: %v, want a timeout", err)
	}
	close(timedOut)
	<-staleSent

	if node, found, err := c.Lookup(1); err != nil || !found || node != 9 {
		t.Fatalf("lookup after the timeout: (%v, %v, %v), want node 9 from the real directory", node, found, err)
	}
	if _, found, err := c.Lookup(5); err != nil || found {
		t.Fatalf("lookup of an unowned id: found=%v err=%v; the stale response leaked", found, err)
	}
	if retries, redials := c.Resilience(); retries != 0 || redials != 0 {
		t.Fatalf("%d retries, %d redials; a timed-out call forgets its request id, it does not tear the connection down", retries, redials)
	}
	c.Close()
	<-served
}
