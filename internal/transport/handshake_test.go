package transport

// The handshake's two failure modes, against servers that misbehave on
// purpose. (Everything else the client core does — retry, redial, the
// one-shot exchange, the per-call timer, pipelining — is tested through the
// two protocols that ride it: the reconnect, chaos and overload suites of
// internal/rpc, and the DirClient suites of internal/dkv.)

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"icache/internal/leakcheck"
	"icache/internal/retry"
	"icache/internal/wire"
)

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
		var hello, pong wire.Buffer
		hello.U8(StatusOK)
		hello.U32(CapMux)
		pong.U8(OpMux)
		pong.U32(0)
		pong.U8(StatusOK)
		var out bytes.Buffer
		wire.WritePayload(&out, hello.B) // a bytes.Buffer cannot fail
		wire.WritePayload(&out, pong.B)
		const tail = 3
		conn.Write(out.Next(out.Len() - tail))
		if _, err := wire.ReadFrame(conn); err != nil { // the ping: id 0 is now awaited
			return
		}
		conn.Write(out.Bytes())
		wire.ReadFrame(conn) // hold the connection until the client closes
	}()

	c, err := Dial(ln.Addr().String(), DialConfig{Timeout: time.Second, Policy: retry.None(),
		RPCTimeout: 2 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Call([]byte{OpPing}, time.Time{}); err != nil {
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
				wire.WritePayload(conn, []byte{StatusOK})
				_, err := wire.ReadFrame(conn) // EOF once the client hangs up
				clientClosed <- err
			}()
		}
	}()

	const timeout = time.Second
	t0 := time.Now()
	c, err := Dial(ln.Addr().String(), DialConfig{Timeout: timeout}, nil)
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
