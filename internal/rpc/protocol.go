// Package rpc implements the client/server wire protocol between the
// deep-learning framework and the iCache server. The paper uses gRPC; this
// reproduction uses an equivalent length-prefixed binary protocol over TCP
// built only on the standard library, with the same two interfaces the
// paper names — fetching batches (rpc_loader) and pushing importance values
// (update_ipersample) — plus epoch-boundary and stats calls.
//
// Frame layout: a 4-byte big-endian payload length, then the payload. The
// payload's first byte is the opcode; the rest is the opcode-specific body.
// All integers are big-endian; floats are IEEE-754 bits.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/wire"
)

// Opcodes. opPeerGet (= 6) lives in peer.go and opTraced (= 7) in obs.go.
const (
	opGetBatch         = 1 // the paper's rpc_loader
	opUpdateImportance = 2 // the paper's update_ipersample
	opStats            = 3
	opBeginEpoch       = 4
	opPing             = 5
	// opPeerGetBatch fetches many resident samples from a peer cache in ONE
	// round trip — the scatter-gather replacement for per-sample opPeerGet.
	// Request: u8 opcode | u32 n | n × i64 id. Response: statusOK | u32 n |
	// n × (u8 found | bytes payload-if-found), aligned with the request.
	opPeerGetBatch = 8
	// opMuxReq is the multiplexed-framing envelope: u8 opcode | u32 reqID |
	// inner request bytes. The response frame echoes the envelope
	// (u8 opMuxReq | u32 reqID | status+body) so a demux reader can match
	// out-of-order responses back to their callers. It is the client's one
	// transport (see mux.go); the only bare frames are the handshake ping
	// and a one-shot retry exchange.
	opMuxReq = 9
	// opDeadline is the deadline-budget envelope: u8 opcode | i64 budget
	// nanoseconds | inner request bytes. The budget is the REMAINING time
	// the client is willing to wait, re-encoded (decremented) at every hop,
	// so clocks never need to agree across machines. It sits inside any mux
	// envelope and composes with the opTraced envelope in either order;
	// nesting another deadline is rejected. A server that cannot finish in
	// time answers statusExpired without touching the cache. Responses
	// carry no deadline.
	opDeadline = 10
	// opEpochPlan is the clairvoyant epoch boundary: opBeginEpoch plus the
	// epoch's known access sequence, pushed in first-access order by a
	// client whose IIS sampler has already drawn the schedule. Request:
	// u8 opcode | u32 epoch | u32 n | n × i64 id. The server performs the
	// normal epoch-boundary duties and — when clairvoyant planning is
	// enabled — installs the sequence as the epoch's prefetch plan (see
	// plan.go). A non-clairvoyant server still crosses the boundary and
	// answers statusOK, so callers need no capability negotiation.
	opEpochPlan = 11
	// opPlanPreplace routes plan entries to their future owner: the sending
	// planner decided (by rendezvous over the membership) that the receiver
	// should hold these samples, and the receiver folds them into its own
	// plan, admitting and fetching them through its own budgeted drain.
	// Request: u8 opcode | u32 n | n × i64 id. Response: statusOK |
	// u32 accepted (0 when the receiver has no planner).
	opPlanPreplace = 12
)

// Capability bits exchanged over opPing at dial time. The client appends
// u32(its caps) to the ping request; the server echoes u32(its caps) after
// statusOK. A reply without capMux fails the dial; the bare status byte of
// a binary that predates the handshake reads as "no capabilities".
const (
	// capMux: the peer speaks opMuxReq framing AND opPeerGetBatch (both
	// shipped together, so one bit covers the batched+pipelined data plane).
	// Required.
	capMux uint32 = 1 << 0
)

// muxHeaderLen is the opMuxReq envelope size: opcode byte + u32 request ID.
const muxHeaderLen = 5

// Response status codes.
const (
	statusOK  = 0
	statusErr = 1
	// statusRetryAfter is the admission gate's shed rejection: the body is
	// i64 backoff-hint nanoseconds. The request was NOT served and NOT
	// counted against the cache; the client should back off and retry.
	statusRetryAfter = 2
	// statusExpired reports that the request's deadline budget ran out
	// before the server started (or finished) the work; the body is empty.
	statusExpired = 3
)

// buffer and reader alias the shared wire encoder/decoder with the local
// lower-case method names this file was written against.
type buffer struct{ wire.Buffer }

func (e *buffer) u8(v byte)       { e.U8(v) }
func (e *buffer) u32(v uint32)    { e.U32(v) }
func (e *buffer) i64(v int64)     { e.I64(v) }
func (e *buffer) f64(v float64)   { e.F64(v) }
func (e *buffer) bytes(v []byte)  { e.Bytes(v) }
func (e *buffer) str(s string)    { e.Str(s) }
func (e *buffer) payload() []byte { return e.Buffer.B }

type reader struct{ *wire.Reader }

func newReader(b []byte) *reader { return &reader{wire.NewReader(b)} }

func (d *reader) u8() byte      { return d.U8() }
func (d *reader) u32() uint32   { return d.U32() }
func (d *reader) i64() int64    { return d.I64() }
func (d *reader) f64() float64  { return d.F64() }
func (d *reader) bytes() []byte { return d.BytesField() }
func (d *reader) str() string   { return d.Str() }
func (d *reader) err() error    { return d.Err }

// rest returns the undecoded remainder of the payload (aliasing it) — the
// inner request bytes of an envelope.
func (d *reader) rest() []byte { return d.B[d.Off:] }

// encodeGetBatchRequest/decode pair.
func encodeGetBatchRequest(ids []dataset.SampleID) []byte {
	var e buffer
	e.u8(opGetBatch)
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.i64(int64(id))
	}
	return e.payload()
}

func decodeGetBatchRequest(d *reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequestInto(d, nil)
}

// decodeGetBatchRequestInto appends the decoded ids to dst (reusing its
// capacity) — the vectored serving path passes a pooled scratch slice so a
// request decode allocates nothing.
func decodeGetBatchRequestInto(d *reader, dst []dataset.SampleID) ([]dataset.SampleID, error) {
	n := int(d.u32())
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("rpc: unreasonable batch size %d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, dataset.SampleID(d.i64()))
	}
	return dst, d.err()
}

// encodePeerGetBatchRequest/decode pair. The request body is identical in
// shape to opGetBatch (u32 count + ids) and shares its size guard.
func encodePeerGetBatchRequest(ids []dataset.SampleID) []byte {
	var e buffer
	e.u8(opPeerGetBatch)
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.i64(int64(id))
	}
	return e.payload()
}

// decodePeerGetBatchResponse decodes the per-id results of an
// opPeerGetBatch response, aligned with the n ids the caller sent: out[i]
// is the payload when the peer had ids[i] resident, nil when it did not.
func decodePeerGetBatchResponse(d *reader, want int) ([][]byte, error) {
	n := int(d.u32())
	if err := d.err(); err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("rpc: peer batch length mismatch: sent %d, got %d", want, n)
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if d.u8() == 1 {
			out[i] = d.bytes()
		}
		if err := d.err(); err != nil {
			return nil, err
		}
	}
	return out, d.err()
}

// encodeEpochPlanRequest/decode pair: the epoch number plus the epoch's
// access sequence in first-access order. The sequence reuses opGetBatch's
// id-list layout and size guard (an IIS schedule is at most one pass over
// the dataset, well under the guard for every spec this repo ships).
func encodeEpochPlanRequest(epoch int, ids []dataset.SampleID) []byte {
	var e buffer
	e.u8(opEpochPlan)
	e.u32(uint32(epoch))
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.i64(int64(id))
	}
	return e.payload()
}

func decodeEpochPlanRequest(d *reader) (epoch uint32, ids []dataset.SampleID, err error) {
	epoch = d.u32()
	ids, err = decodeGetBatchRequest(d)
	return epoch, ids, err
}

// encodePlanPreplaceRequest/decode pair: the id-list layout again.
func encodePlanPreplaceRequest(ids []dataset.SampleID) []byte {
	var e buffer
	e.u8(opPlanPreplace)
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.i64(int64(id))
	}
	return e.payload()
}

func decodePlanPreplaceRequest(d *reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequest(d)
}

// Sample is one delivered sample on the wire: the ID actually served (which
// may differ from the requested ID under substitution) and its payload.
type Sample struct {
	ID      dataset.SampleID
	Payload []byte
}

// encodeGetBatchResponse is the flat reference encoding of a GetBatch
// response. The server frames responses as a wire.Vec (serve_vec.go) and
// never calls this; tests and FuzzServerDispatch hold the served bytes
// against it.
func encodeGetBatchResponse(samples []Sample) []byte {
	var e buffer
	e.u8(statusOK)
	e.u32(uint32(len(samples)))
	for _, s := range samples {
		e.i64(int64(s.ID))
		e.bytes(s.Payload)
	}
	return e.payload()
}

func decodeGetBatchResponse(d *reader) ([]Sample, error) {
	return decodeGetBatchResponseInto(d, nil)
}

// decodeGetBatchResponseInto appends the decoded samples to dst (reusing
// its capacity) — the borrowed-read client path passes a pooled scratch
// slice so a response decode allocates nothing. Payloads alias the frame.
func decodeGetBatchResponseInto(d *reader, dst []Sample) ([]Sample, error) {
	n := int(d.u32())
	if dst == nil {
		dst = make([]Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		id := dataset.SampleID(d.i64())
		payload := d.bytes()
		if d.err() != nil {
			return nil, d.err()
		}
		dst = append(dst, Sample{ID: id, Payload: payload})
	}
	return dst, d.err()
}

func encodeUpdateImportanceRequest(items []sampling.Item) []byte {
	var e buffer
	e.u8(opUpdateImportance)
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.i64(int64(it.ID))
		e.f64(it.IV)
	}
	return e.payload()
}

func decodeUpdateImportanceRequest(d *reader) ([]sampling.Item, error) {
	n := int(d.u32())
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("rpc: unreasonable H-list size %d", n)
	}
	items := make([]sampling.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, sampling.Item{ID: dataset.SampleID(d.i64()), IV: d.f64()})
	}
	return items, d.err()
}

// Stats is the server-side counter snapshot exposed over the wire.
type Stats struct {
	Hits          int64
	Misses        int64
	Substitutions int64
	HCacheLen     int64
	LCacheLen     int64
	Packages      int64
	// DemandFetches counts backend reads issued on the demand path (cold
	// misses). Last field of the wire response; the decoder accepts a frame
	// that ends before it.
	DemandFetches int64
}

func encodeStatsResponseInto(e *buffer, s Stats) {
	e.u8(statusOK)
	e.i64(s.Hits)
	e.i64(s.Misses)
	e.i64(s.Substitutions)
	e.i64(s.HCacheLen)
	e.i64(s.LCacheLen)
	e.i64(s.Packages)
	e.i64(s.DemandFetches)
}

func decodeStatsResponse(d *reader) (Stats, error) {
	s := Stats{
		Hits:          d.i64(),
		Misses:        d.i64(),
		Substitutions: d.i64(),
		HCacheLen:     d.i64(),
		LCacheLen:     d.i64(),
		Packages:      d.i64(),
	}
	// DemandFetches trails the six counters; a frame that ends here is
	// accepted (input validation, not version negotiation).
	if err := d.err(); err != nil {
		return s, err
	}
	if len(d.rest()) >= 8 {
		s.DemandFetches = d.i64()
	}
	return s, d.err()
}

func encodeErrorResponseInto(e *buffer, msg string) {
	e.u8(statusErr)
	e.str(msg)
}

// deadlineHeaderLen is the opDeadline envelope size: opcode byte + i64
// budget nanoseconds.
const deadlineHeaderLen = 9

// encodeDeadlineRequest wraps an encoded inner request in the opDeadline
// envelope carrying the remaining budget. Budgets <= 0 are clamped to 1ns
// (an expired budget is still sent so the server answers statusExpired
// rather than the client silently dropping the call).
func encodeDeadlineRequest(budget time.Duration, inner []byte) []byte {
	if budget <= 0 {
		budget = 1
	}
	e := buffer{wire.Buffer{B: make([]byte, 0, deadlineHeaderLen+len(inner))}}
	e.u8(opDeadline)
	e.i64(int64(budget))
	e.bytesRaw(inner)
	return e.payload()
}

// bytesRaw appends raw bytes with no length prefix (envelope bodies carry
// their own framing).
func (e *buffer) bytesRaw(v []byte) { e.Buffer.B = append(e.Buffer.B, v...) }

// peelEnvelopes strips the optional deadline and trace envelopes from a
// request (its mux envelope already removed): either order, each at most
// once. It returns the inner request, the trace context (zero when
// untraced) and the hop's absolute deadline, re-anchored on the local clock
// (zero when unbounded). This is the only place either envelope is decoded;
// a repeated envelope is rejected, so a fuzzed frame cannot make it loop
// more than three times.
func peelEnvelopes(p []byte) (inner []byte, ctx obs.TraceCtx, dl time.Time, err error) {
	for len(p) > 0 && (p[0] == opDeadline || p[0] == opTraced) {
		d := newReader(p)
		if d.u8() == opDeadline {
			if !dl.IsZero() {
				return nil, ctx, dl, errors.New("rpc: nested deadline envelope")
			}
			budget := d.i64()
			if err := d.err(); err != nil {
				return nil, ctx, dl, err
			}
			if budget <= 0 {
				return nil, ctx, dl, fmt.Errorf("rpc: non-positive deadline budget %d", budget)
			}
			dl = time.Now().Add(time.Duration(budget))
		} else {
			if ctx.Valid() {
				return nil, ctx, dl, errors.New("rpc: nested trace envelope")
			}
			id, hop := uint64(d.i64()), d.u8()
			if err := d.err(); err != nil {
				return nil, ctx, dl, err
			}
			if ctx = (obs.TraceCtx{ID: id, Hop: hop}); !ctx.Valid() {
				return nil, ctx, dl, errors.New("rpc: trace envelope with zero trace id")
			}
		}
		p = d.rest()
	}
	return p, ctx, dl, nil
}

// encodeRetryAfterResponseInto writes the admission gate's shed rejection.
func encodeRetryAfterResponseInto(e *buffer, after time.Duration) {
	e.u8(statusRetryAfter)
	e.i64(int64(after))
}

// remainingBudget converts an absolute deadline back into the budget a
// downstream hop should be given (zero deadline = no bound, 0 budget).
// Expired deadlines report a negative remainder so callers can drop the
// work instead of issuing a doomed call.
func remainingBudget(deadline, now time.Time) (time.Duration, bool) {
	if deadline.IsZero() {
		return 0, false
	}
	return deadline.Sub(now), true
}
