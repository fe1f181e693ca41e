package transport_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"icache/internal/dkv"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
	"icache/internal/wire"
)

// Opcodes of the stub protocol the tests here serve: opEcho answers with the
// peeled request it was handed, on a dispatch goroutine; opInline the same
// from the read loop; opHold (gated) blocks until released.
const (
	opEcho   = 1
	opInline = 2
	opHold   = 3
)

// stubServer serves the stub protocol; hold releases opHold requests.
func stubServer() (srv *transport.Server, hold chan struct{}) {
	hold = make(chan struct{})
	return transport.NewServer(transport.Handler{
		Route: func(op byte) transport.Route {
			switch op {
			case opInline:
				return transport.Inline
			case opHold:
				return transport.Gated
			}
			return 0
		},
		Serve: func(w transport.Response, req []byte, ctx obs.TraceCtx, dl time.Time) error {
			if req[0] == opHold {
				<-hold
			}
			return w.Reply(func(e *wire.Buffer) error {
				if req[0] > opHold {
					return errors.New("stub: unknown opcode")
				}
				e.B = append(e.B, req...)
				return nil
			})
		},
	}), hold
}

func TestEnvelopeRejections(t *testing.T) {
	srv, _ := stubServer()
	transporttest.EnvelopeRejections(t, srv)
}

// TestRoutes pins the handler contract on one connection: a Gated opcode is
// shed once the gate is full, an ungated one is served regardless — while the
// gated request is still being held, so it ran on its own goroutine — and an
// Inline one is answered before ServeFrame returns. There is no socket: the
// responses land in a buffer, read at the bubble's quiet points.
func TestRoutes(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		srv, hold := stubServer()
		srv.Gate = overload.NewGate(overload.GateConfig{MaxInflight: 1})
		var out syncBuffer
		c := srv.NewConn(&out)
		serve := func(id uint32, op byte) {
			t.Helper()
			if err := srv.ServeFrame(c, transporttest.MuxWrap(id, []byte{op})); err != nil {
				t.Fatal(err)
			}
		}
		next := func() (id uint32, status byte) {
			t.Helper()
			vt.Wait() // every request that can be answered has been
			if out.Len() == 0 {
				t.Fatal("no response frame")
			}
			d := wire.NewReader(out.frame(t))
			d.U8()
			return d.U32(), d.U8()
		}

		serve(1, opHold) // admitted: holds the gate's one slot on a dispatch goroutine
		serve(2, opHold)
		if id, st := next(); id != 2 || st != transport.StatusRetryAfter {
			t.Fatalf("second gated request answered (id %d, status %d), want it shed", id, st)
		}
		if shed, _ := srv.OverloadCounters(); shed != 1 {
			t.Fatalf("%d requests counted shed, want 1", shed)
		}
		serve(3, opInline)
		if out.Len() == 0 {
			t.Fatal("an Inline request was not answered by the time ServeFrame returned")
		}
		if id, st := next(); id != 3 || st != transport.StatusOK {
			t.Fatalf("inline request answered (id %d, status %d)", id, st)
		}
		serve(4, opEcho)
		if id, st := next(); id != 4 || st != transport.StatusOK {
			t.Fatalf("ungated request behind a full gate answered (id %d, status %d)", id, st)
		}
		if n := srv.MuxInflight(); n != 1 {
			t.Fatalf("%d requests on dispatch goroutines, want the held one", n)
		}
		close(hold)
		if id, st := next(); id != 1 || st != transport.StatusOK {
			t.Fatalf("held request answered (id %d, status %d)", id, st)
		}
		c.Wait()
	})
}

// TestDispatchGoroutinesAreResident: a connection's muxed requests are served
// by goroutines that live as long as the connection — a sequential client is
// served by one, whatever the number of requests (or by a few: a request that
// arrives after its predecessor's answer was written and before that worker
// has parked starts another), eight concurrent requests by eight — and Close,
// or Wait on an injected connection, leaves none behind (the bubble the test
// runs in ends only when they have).
func TestDispatchGoroutinesAreResident(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const slack = 3 // workers started in the window described above
		var mu sync.Mutex
		servedBy := make(map[string]int) // dispatch goroutine -> requests it served
		hold := make(chan struct{})
		srv := transport.NewServer(transport.Handler{
			Route: func(byte) transport.Route { return 0 },
			Serve: func(w transport.Response, req []byte, _ obs.TraceCtx, _ time.Time) error {
				var buf [64]byte // "goroutine 123 [running]:..."
				g := string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
				mu.Lock()
				servedBy[g]++
				mu.Unlock()
				if req[0] == opHold {
					<-hold
				}
				return w.Reply(func(e *wire.Buffer) error { return nil })
			},
		})
		workers := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(servedBy)
		}
		ln := transporttest.NewNetwork(t).ListenAny()
		go srv.Serve(ln)
		c, err := transport.Dial(ln.Addr().String(), transport.DialConfig{Timeout: 2 * time.Second}, func(error) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		call := func(op byte) {
			if _, _, err := c.Call([]byte{op}, time.Time{}); err != nil {
				t.Error(err)
			}
		}

		call(opEcho)
		after1 := runtime.NumGoroutine()
		for i := 1; i < 1000; i++ {
			call(opEcho)
		}
		if n := runtime.NumGoroutine(); n > after1+slack {
			t.Errorf("%d goroutines after 1000 sequential requests, %d after the first", n, after1)
		}
		if n := workers(); n > 1+slack {
			t.Errorf("1000 sequential requests were served by %d goroutines, want the connection's one worker (or a few)", n)
		}

		// Eight at once are still served concurrently: all eight are held
		// together, on eight workers, which then serve whatever comes next.
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				call(opHold)
			}()
		}
		vt.Wait()
		if n := srv.MuxInflight(); n != 8 {
			t.Fatalf("%d of 8 concurrent requests in service", n)
		}
		close(hold)
		wg.Wait()
		for i := 0; i < 100; i++ {
			call(opEcho)
		}
		if n := workers(); n < 8 || n > 8+2*slack {
			t.Errorf("%d dispatch goroutines after 8 concurrent requests and 100 more sequential ones, want 8 (or a few more)", n)
		}
		c.Close()
		srv.Close()

		// The same on a connection without a read loop: Wait retires the workers
		// NewConn's frames started (Dispatch waits too).
		var out syncBuffer
		cn := srv.NewConn(&out)
		for id := uint32(0); id < 3; id++ {
			if err := srv.ServeFrame(cn, transporttest.MuxWrap(id, []byte{opEcho})); err != nil {
				t.Fatal(err)
			}
		}
		cn.Wait()
		for id := 0; id < 3; id++ {
			out.frame(t)
		}
		transporttest.Dispatch(srv, []byte{opEcho})
	})
}

// syncBuffer is an in-memory connection's write side, safe for a dispatch
// goroutine writing while the test reads.
type syncBuffer struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) frame(t *testing.T) []byte {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	f, err := wire.ReadFrame(&b.buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// lateListener hands Accept its one connection only once Close has been
// called: the accept that was already in flight when shutdown began.
type lateListener struct {
	closing chan struct{}
	conn    chan net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closing
	select {
	case c := <-l.conn:
		return c, nil
	default:
		return nil, net.ErrClosed
	}
}
func (l *lateListener) Close() error   { close(l.closing); return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestCloseRefusesConnAcceptedDuringShutdown: a connection whose accept
// completes while Close is closing the registered ones must be closed, not
// served — nobody would be left to close it, and Close would wait on its
// read loop forever (TestChaosPlanOwnerKill used to hang this way when the
// survivor's planner dialed the node being killed). There is one accept loop,
// so the directory server inherits the guarantee; its row fails on a
// DirServer that still runs its own.
func TestCloseRefusesConnAcceptedDuringShutdown(t *testing.T) {
	type server interface {
		Serve(net.Listener) error
		Addr() net.Addr
		Close() error
	}
	for _, tc := range []struct {
		name   string
		server func() server
	}{
		{"transport", func() server { srv, _ := stubServer(); return srv }},
		{"dkv", func() server { return dkv.NewDirServer(dkv.NewDirectory()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vt.Run(t, func(t *testing.T) {
				srv := tc.server()
				client, server := net.Pipe()
				defer client.Close()
				ln := &lateListener{closing: make(chan struct{}), conn: make(chan net.Conn, 1)}
				ln.conn <- server
				go srv.Serve(ln)
				vt.Wait() // Serve is blocked in Accept
				if srv.Addr() == nil {
					t.Fatal("Serve is accepting but reports no address")
				}
				closed := make(chan struct{})
				go func() {
					srv.Close()
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close is waiting on a connection accepted after it began")
				}
				client.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
					t.Fatalf("read on the late connection: %v, want EOF (the server must have closed it)", err)
				}
			})
		})
	}
}

// FuzzServeFrame throws arbitrary frames at the transport's frame handler
// over the stub protocol — the mux and envelope layer with nothing above it:
// exactly one response frame; a frame without the mux envelope refused with
// a bare StatusErr; otherwise the answer inside the envelope the request came
// in, with a known status; a mux envelope inside a mux envelope is an error;
// and whatever reaches the handler is what the request ends with, envelopes
// stripped, never a reserved opcode.
func FuzzServeFrame(f *testing.F) {
	srv, hold := stubServer()
	close(hold) // nothing blocks
	tctx := obs.TraceCtx{ID: 9, Hop: 1}
	echo := []byte{opEcho, 0xAA, 0xBB}
	mux := func(req []byte) []byte { return transporttest.MuxWrap(1, req) }
	f.Add([]byte{})
	f.Add(echo)
	f.Add(mux([]byte{opInline}))
	f.Add(mux([]byte{0xFF, 1, 2}))
	f.Add(mux([]byte{transport.OpPing}))
	f.Add([]byte{transport.OpPing, 0, 0, 0, 1}) // the capability ping clients used to open with
	f.Add(mux(echo))
	f.Add(mux(mux(echo)))
	f.Add([]byte{transport.OpMux, 0, 0, 0})
	f.Add(mux(transporttest.WrapTraced(transporttest.WrapDeadline(time.Minute, echo), tctx)))
	f.Add(mux(transporttest.WrapDeadline(time.Minute, transporttest.WrapTraced(echo, tctx))))
	f.Add(transporttest.MuxWrap(3, transporttest.WrapDeadline(time.Minute, transporttest.WrapTraced([]byte{opInline}, tctx))))
	f.Add(mux(transporttest.WrapTraced(transporttest.WrapTraced(echo, tctx), tctx)))
	f.Add(mux(transporttest.WrapDeadline(time.Minute, transporttest.WrapDeadline(time.Minute, echo))))
	f.Add(mux([]byte{transport.OpDeadline, 0, 0, 0, 0, 0, 0, 0, 0, opEcho}))
	f.Add(mux([]byte{transport.OpDeadline, 0, 0, 0, 1}))
	f.Add(mux([]byte{transport.OpTraced, 1, 2}))
	f.Add(mux(transporttest.WrapTraced(nil, tctx)))
	f.Add(transporttest.WrapTraced(echo, tctx))

	f.Fuzz(func(t *testing.T, req []byte) {
		resp := transporttest.DispatchFrame(srv, req)
		if len(req) < transport.MuxHeaderLen || req[0] != transport.OpMux {
			d := wire.NewReader(resp)
			if st, msg := d.U8(), d.Str(); st != transport.StatusErr || msg != "transport: request without mux envelope" {
				t.Fatalf("frame without a mux envelope answered %x, want the bare refusal", resp)
			}
			return
		}
		if !bytes.HasPrefix(resp, req[:transport.MuxHeaderLen]) {
			t.Fatalf("muxed request answered %x: envelope not echoed", resp)
		}
		req, resp = req[transport.MuxHeaderLen:], resp[transport.MuxHeaderLen:]
		if len(req) > 0 && req[0] == transport.OpMux && (len(resp) == 0 || resp[0] != transport.StatusErr) {
			t.Fatalf("mux envelope inside a mux envelope answered %x, want StatusErr", resp)
		}
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		switch resp[0] {
		case transport.StatusErr:
		case transport.StatusOK:
			inner := resp[1:]
			if len(inner) == 0 {
				return // a ping's answer
			}
			if !bytes.HasSuffix(req, inner) || inner[0] > opHold {
				t.Fatalf("request %x reached the handler as %x", req, inner)
			}
		default:
			t.Fatalf("response status %d from a handler that only replies or errors, with no gate", resp[0])
		}
	})
}
