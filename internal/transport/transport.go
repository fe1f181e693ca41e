// Package transport is the one wire transport of this repository: the cache
// protocol (internal/rpc) and the directory protocol (internal/dkv) are both
// op encoders and a request handler on top of it. It owns everything the two
// protocols have in common and nothing that is specific to either:
//
//   - framing on a connection: one wire.FrameReader per connection, one
//     write per frame (see internal/wire);
//   - the multiplexed session (mux.go), the one way a frame travels: every
//     request and every response carries the OpMux envelope;
//   - the client core (client.go): dial and redial generations, each proved
//     by one muxed ping, retry with backoff on a fresh generation, a per-call
//     deadline timer that forgets one request id instead of poisoning the
//     connection, the circuit breaker gate, and the decoding of the response
//     status;
//   - the server core (server.go): one accept loop and Close, one frame
//     handler that peels the mux, deadline and trace envelopes, one admission
//     site, and the dispatch of the peeled request to the protocol's Handler
//     on the read loop or on a bounded goroutine;
//   - the envelope encoders and the status codes below, with one ServerError.
//
// # Reserved opcodes
//
// The first byte of a request is its opcode. Four are the transport's, on
// every port: OpPing (liveness) and OpTraced, OpMux and OpDeadline (the three
// envelopes). A protocol numbers its own opcodes around them; none may
// collide (each protocol package has a test that says so).
package transport

import (
	"errors"
	"fmt"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/wire"
)

// Reserved opcodes (see the package comment).
const (
	// OpPing checks liveness and is answered StatusOK with no body. A
	// client's first ping on a connection proves the session (see Dial).
	OpPing = 5
	// OpTraced is the trace envelope: u8 opcode | i64 trace id | u8 hop |
	// inner request bytes. The hop is the one the RECEIVER occupies in the
	// chain (the sender passes its own context's Next()).
	OpTraced = 7
	// OpMux is the multiplexed-framing envelope: u8 opcode | u32 request id |
	// inner request bytes. The response frame echoes the envelope
	// (u8 OpMux | u32 request id | status+body) so a demux reader can match
	// out-of-order responses back to their callers. It is outermost on every
	// request (see mux.go); a frame without it is answered with a bare
	// StatusErr and never served.
	OpMux = 9
	// OpDeadline is the deadline-budget envelope: u8 opcode | i64 budget
	// nanoseconds | inner request bytes. The budget is the REMAINING time
	// the sender is willing to wait, re-encoded (decremented) at every hop,
	// so clocks never need to agree across machines. It sits inside any mux
	// envelope and composes with the trace envelope in either order; each
	// may appear once. Responses carry no deadline.
	OpDeadline = 10
)

// MuxHeaderLen is the OpMux envelope size: opcode byte + u32 request id.
const MuxHeaderLen = 5

// Response status codes: the first byte of every response.
const (
	StatusOK  = 0
	StatusErr = 1 // body: the error message (a ServerError at the client)
	// StatusRetryAfter is the admission gate's shed rejection: the body is
	// i64 backoff-hint nanoseconds. The request was NOT served; the caller
	// should back off and retry.
	StatusRetryAfter = 2
	// StatusExpired reports that the request's deadline budget ran out
	// before the server started (or finished) the work; the body is empty.
	StatusExpired = 3
)

// ErrDeadlineExceeded classifies every deadline-driven failure of a round
// trip — a local per-call timeout as well as the server answering
// StatusExpired. Callers (the load harness's goodput accounting) match it
// with errors.Is; the two flavors below stay distinguishable because only
// the local timeout says anything about the peer's health.
var ErrDeadlineExceeded = errors.New("transport: deadline exceeded")

// ErrCallTimeout: the client gave up waiting locally (the per-call timer
// fired, on the call or on the ping proving its redial). The peer may be hung.
var ErrCallTimeout = fmt.Errorf("call timed out: %w", ErrDeadlineExceeded)

// ErrExpiredByServer: the server answered promptly that the budget had run
// out before it would start the work (also an overload.ErrExpired). The peer
// is healthy.
var ErrExpiredByServer = fmt.Errorf("server dropped expired request: %w (%w)", ErrDeadlineExceeded, overload.ErrExpired)

// ServerError is an application error the server reported in a StatusErr
// frame. The transport worked and the server is alive; these are never
// retried.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "transport: server error: " + e.Msg }

// AppendEnvelopes starts a request in e with the envelopes a sender owes it:
// the deadline envelope for the time left until dl (zero = none) and the
// trace envelope for ctx (zero = none), which carries the hop the receiver
// occupies (the sender passes its own context through TraceCtx.Next). The
// caller appends the request itself. A budget already spent is sent as 1 ns,
// so the server answers StatusExpired and its accounting sees the request,
// rather than the client silently dropping the call.
func AppendEnvelopes(e *wire.Buffer, ctx obs.TraceCtx, dl time.Time) {
	if !dl.IsZero() {
		e.U8(OpDeadline)
		e.I64(int64(max(time.Until(dl), 1)))
	}
	if ctx.Valid() {
		e.U8(OpTraced)
		e.I64(int64(ctx.ID))
		e.U8(ctx.Hop)
	}
}

// peelEnvelopes strips the optional deadline and trace envelopes from a
// request (its mux envelope already removed): either order, each at most
// once. It returns the inner request, the trace context (zero when
// untraced) and the hop's absolute deadline, re-anchored on the local clock
// (zero when unbounded). This is the only place either envelope is decoded;
// a repeated envelope is rejected, so a fuzzed frame cannot make it loop
// more than three times.
func peelEnvelopes(p []byte) (inner []byte, ctx obs.TraceCtx, dl time.Time, err error) {
	for len(p) > 0 && (p[0] == OpDeadline || p[0] == OpTraced) {
		d := wire.Reader{B: p}
		if d.U8() == OpDeadline {
			if !dl.IsZero() {
				return nil, ctx, dl, errors.New("transport: nested deadline envelope")
			}
			budget := d.I64()
			if d.Err != nil {
				return nil, ctx, dl, d.Err
			}
			if budget <= 0 {
				return nil, ctx, dl, fmt.Errorf("transport: non-positive deadline budget %d", budget)
			}
			// The anchor is one nanosecond short of the budget, so the 1 ns a
			// sender sends for a spent budget is already spent here, on a
			// clock that has not moved since (AppendEnvelopes).
			dl = time.Now().Add(time.Duration(budget) - 1)
		} else {
			if ctx.Valid() {
				return nil, ctx, dl, errors.New("transport: nested trace envelope")
			}
			id, hop := uint64(d.I64()), d.U8()
			if d.Err != nil {
				return nil, ctx, dl, d.Err
			}
			if ctx = (obs.TraceCtx{ID: id, Hop: hop}); !ctx.Valid() {
				return nil, ctx, dl, errors.New("transport: trace envelope with zero trace id")
			}
		}
		p = d.B[d.Off:]
	}
	return p, ctx, dl, nil
}
