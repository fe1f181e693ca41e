// Package transporttest is what the tests of internal/transport and of the
// two protocols on it (internal/rpc, internal/dkv) share: a way to hand one
// request frame to a server's frame handler the way a connection does, and
// the table of envelope stacks every handler must see accepted or rejected
// the same way — there is one peel site, and this is its contract.
package transporttest

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/transport"
	"icache/internal/wire"
)

// captureConn is the server's end of an in-memory connection: it records
// what the server writes (a dispatch goroutine may be the writer).
type captureConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// Dispatch runs one request through s.ServeFrame — the handler every
// connection's read loop calls — inside a mux envelope, the way a client
// sends it, and returns the response with the echoed envelope removed. It
// panics when the server writes anything but exactly one frame echoing the
// envelope: that is the property under test everywhere Dispatch is used.
func Dispatch(s *transport.Server, req []byte) []byte {
	frame := MuxWrap(7, req)
	resp := DispatchFrame(s, frame)
	if !bytes.HasPrefix(resp, frame[:transport.MuxHeaderLen]) {
		panic(fmt.Sprintf("request %x: response %x does not echo the mux envelope", req, resp))
	}
	return resp[transport.MuxHeaderLen:]
}

// DispatchFrame runs one frame through s.ServeFrame as it is, envelope or
// not, and returns the payload of the one response frame it wrote. A muxed
// request may answer from a dispatch goroutine, so the connection's handlers
// are drained first. It panics when the server writes anything but exactly
// one frame.
func DispatchFrame(s *transport.Server, frame []byte) []byte {
	conn := &captureConn{}
	c := s.NewConn(conn)
	if err := s.ServeFrame(c, frame); err != nil {
		panic(fmt.Sprintf("ServeFrame over an in-memory connection: %v", err))
	}
	c.Wait()
	resp, err := wire.ReadFrame(&conn.buf)
	if err != nil || conn.buf.Len() != 0 {
		panic(fmt.Sprintf("frame %x: want exactly one response frame, got err=%v with %d bytes left over", frame, err, conn.buf.Len()))
	}
	return resp
}

// MuxWrap puts req in an OpMux envelope.
func MuxWrap(id uint32, req []byte) []byte {
	var e wire.Buffer
	e.U8(transport.OpMux)
	e.U32(id)
	e.B = append(e.B, req...)
	return e.B
}

// WrapTraced wraps an encoded request in a trace envelope for ctx, the way
// transport.AppendEnvelopes writes one, so a test can stack envelopes in any
// order and any number.
func WrapTraced(req []byte, ctx obs.TraceCtx) []byte {
	var e wire.Buffer
	e.U8(transport.OpTraced)
	e.I64(int64(ctx.ID))
	e.U8(ctx.Hop)
	return append(e.B, req...)
}

// WrapDeadline wraps an encoded request in a deadline envelope carrying
// budget, clamped to 1 ns as transport.AppendEnvelopes clamps a spent one.
func WrapDeadline(budget time.Duration, req []byte) []byte {
	var e wire.Buffer
	e.U8(transport.OpDeadline)
	e.I64(int64(max(budget, 1)))
	return append(e.B, req...)
}

// EnvelopeRejections pins the in-band answers to envelope stacks inside a
// mux envelope, whatever protocol s serves (the inner request is a ping,
// which every port answers): the trace and deadline envelopes compose in
// either order, each may appear once, and a mux envelope is outermost — a
// frame without one is refused, answered bare, and never served.
func EnvelopeRejections(t *testing.T, s *transport.Server) {
	t.Helper()
	ping := []byte{transport.OpPing}
	tctx := obs.TraceCtx{ID: 9, Hop: 1}
	traced := func(req []byte) []byte { return WrapTraced(req, tctx) }
	deadlined := func(req []byte) []byte { return WrapDeadline(time.Minute, req) }
	for _, tc := range []struct {
		name string
		req  []byte
		bare bool   // sent as it is, not in a mux envelope
		want string // "" = accepted (StatusOK)
	}{
		{"ping", ping, false, ""},
		{"trace outside deadline", traced(deadlined(ping)), false, ""},
		{"deadline outside trace", deadlined(traced(ping)), false, ""},
		{"nested trace", traced(traced(ping)), false, "transport: nested trace envelope"},
		{"nested trace around deadline", traced(deadlined(traced(ping))), false, "transport: nested trace envelope"},
		{"zero trace id", WrapTraced(ping, obs.TraceCtx{Hop: 1}), false, "transport: trace envelope with zero trace id"},
		{"nested deadline", deadlined(deadlined(ping)), false, "transport: nested deadline envelope"},
		{"nested deadline around trace", deadlined(traced(deadlined(ping))), false, "transport: nested deadline envelope"},
		{"non-positive budget", []byte{transport.OpDeadline, 0, 0, 0, 0, 0, 0, 0, 0, transport.OpPing}, false, "transport: non-positive deadline budget 0"},
		{"truncated trace envelope", []byte{transport.OpTraced, 1, 2}, false, "wire: truncated message (need 8 bytes at offset 1 of 3)"},
		{"mux inside mux", MuxWrap(2, ping), false, "transport: unknown opcode 9"},
		{"mux inside trace", traced(MuxWrap(2, ping)), false, "transport: unknown opcode 9"},
		{"bare frame", ping, true, "transport: request without mux envelope"},
	} {
		var resp []byte
		if tc.bare {
			resp = DispatchFrame(s, tc.req)
		} else {
			resp = Dispatch(s, tc.req)
		}
		d := wire.NewReader(resp)
		st := d.U8()
		if tc.want == "" {
			if st != transport.StatusOK {
				t.Errorf("%s: answered status %d %q, want StatusOK", tc.name, st, d.Str())
			}
			continue
		}
		if msg := d.Str(); st != transport.StatusErr || msg != tc.want {
			t.Errorf("%s: answered status %d %q, want StatusErr %q", tc.name, st, msg, tc.want)
		}
	}
}
