package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// ErrDeadlineExceeded classifies every deadline-driven failure of a round
// trip — a local per-call timeout as well as the server answering
// StatusExpired. Callers (the load harness's goodput accounting) match it
// with errors.Is.
var ErrDeadlineExceeded = transport.ErrDeadlineExceeded

// Client is the framework-side iCache client module (the role the paper's
// iCacheImageFolder plays inside PyTorch): it forwards data-loader requests
// to the cache server and pushes the job's H-list after importance updates.
//
// It is the cache protocol's op encoders over a transport.Client, which owns
// the connection: requests are pipelined on one multiplexed TCP connection,
// transport failures are retried with redial under the dial policy — a
// long-running training job rides through cache server restarts, and servers
// come back warm via checkpoints — and application errors reported by the
// server are never retried.
type Client struct {
	t *transport.Client

	// Observability (EnableObs; all nil/zero when disabled). rtHist times
	// whole round trips (retries included); tracer+sampler arm 1-in-N
	// request tracing, with span timestamps measured from obsStart so the
	// client's trace clock starts at dial like the server's starts at
	// NewServer.
	rtHist   *obs.Histogram
	tracer   *trace.Recorder
	sampler  *obs.Sampler
	obsStart time.Time
}

// DialConfig parameterizes DialConfigured (see transport.DialConfig). The
// zero value selects the defaults Dial uses.
type DialConfig = transport.DialConfig

// Dial connects to an iCache server with the default retry policy.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialConfigured(addr, DialConfig{Timeout: timeout})
}

// DialPolicy connects with an explicit retry policy. The policy governs
// both the initial dial and every subsequent round trip.
func DialPolicy(addr string, timeout time.Duration, policy retry.Policy) (*Client, error) {
	return DialConfigured(addr, DialConfig{Timeout: timeout, Policy: policy})
}

// DialConfigured connects with explicit transport configuration. A server
// that does not advertise the mux capability fails the dial at once.
func DialConfigured(addr string, cfg DialConfig) (*Client, error) {
	t, err := transport.Dial(addr, cfg, breakerOutcomeOK)
	if err != nil {
		return nil, err
	}
	return &Client{t: t, obsStart: time.Now()}, nil
}

// Close tears down the connection and the demux reader.
func (c *Client) Close() error { return c.t.Close() }

// Resilience reports how many round trips needed a retry and how many
// redials the client made over its lifetime.
func (c *Client) Resilience() (retries, redials int64) { return c.t.Resilience() }

// roundTrip sends one request and returns the body of its StatusOK answer.
// The pooled buffer backing it is intentionally dropped, not recycled: this
// path hands decoded bytes out by reference with an unbounded lifetime.
// Borrowed-read callers use call.
func (c *Client) roundTrip(req []byte) (*wire.Reader, error) {
	d, _, err := c.call(req, time.Time{})
	return d, err
}

// call is transport.Client.Call timed into the round-trip histogram
// (retries included).
func (c *Client) call(req []byte, dl time.Time) (*wire.Reader, *wire.Buffer, error) {
	var t0 time.Time
	if c.rtHist != nil {
		t0 = time.Now()
	}
	d, owner, err := c.t.Call(req, dl)
	c.rtHist.Since(t0)
	return d, owner, err
}

// breakerOutcomeOK maps a round-trip error to peer health. Application
// errors (StatusErr) and server-side expiry mean the peer answered — those
// are successes for the circuit. Transport failures, local timeouts, and
// shed rejections (a browned-out peer asking callers to go away) are the
// failures that should open it: the caller has a backend to fall back to.
func breakerOutcomeOK(err error) bool {
	var se *transport.ServerError
	return errors.As(err, &se) || errors.Is(err, transport.ErrExpiredByServer)
}

// GetBatch fetches a mini-batch through the cache (the paper's rpc_loader
// interface). The returned samples may carry different IDs than requested
// when the server substituted missed L-samples.
//
// When client observability is armed (EnableObs) and the sampler fires,
// the request travels inside a trace envelope and the client records the
// hop-0 KindRPCSend span covering the full round trip.
func (c *Client) GetBatch(ids []dataset.SampleID) ([]Sample, error) {
	return c.GetBatchCtx(context.Background(), ids)
}

// GetBatchCtx is GetBatch with deadline propagation: the context's
// remaining time is encoded into the request's deadline envelope, so the
// server (and every peer/directory hop it fans out to) inherits the budget
// and drops work that can no longer finish in time. The same deadline
// bounds the local wait (a hung transport cannot outlive the context).
// It is GetBatchFuncCtx with the payloads copied out, into one allocation,
// before the frame they alias is recycled.
func (c *Client) GetBatchCtx(ctx context.Context, ids []dataset.SampleID) ([]Sample, error) {
	var out []Sample
	err := c.GetBatchFuncCtx(ctx, ids, func(samples []Sample) error {
		n := 0
		for _, s := range samples {
			n += len(s.Payload)
		}
		buf := make([]byte, 0, n)
		out = make([]Sample, len(samples))
		for i, s := range samples {
			at := len(buf)
			buf = append(buf, s.Payload...)
			out[i] = Sample{ID: s.ID, Payload: buf[at:len(buf):len(buf)]}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ctxBounds reads a context's deadline as the local bound of the call (the
// transport tightens it with the configured RPCTimeout) and as the wire
// budget (0 = none), the context's remaining time. An already-done context
// fails fast without a network round trip.
func ctxBounds(ctx context.Context) (deadline time.Time, budget time.Duration, err error) {
	if ctxErr := ctx.Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return time.Time{}, 0, fmt.Errorf("rpc: %w", transport.ErrCallTimeout)
		}
		return time.Time{}, 0, ctxErr
	}
	deadline, ok := ctx.Deadline()
	if ok {
		budget = time.Until(deadline)
		if budget <= 0 {
			budget = 1 // raced to expiry: still send, server answers StatusExpired
		}
	}
	return deadline, budget, nil
}

// sampleSlicePool recycles the decoded-sample scratch slices GetBatchFunc
// hands to its callback. Stored as pointers so checkouts don't re-box the
// slice header.
var sampleSlicePool = sync.Pool{New: func() interface{} {
	s := make([]Sample, 0, 64)
	return &s
}}

// GetBatchFunc fetches a mini-batch and hands the decoded samples to fn
// instead of returning them. The samples — every ID and Payload slice —
// are valid ONLY for the duration of the callback: they alias a pooled
// response buffer that is recycled the moment fn returns, so a caller that
// needs bytes afterwards must copy them inside fn. In exchange, a warm
// round trip on the multiplexed transport performs no per-request frame
// allocation on the client: the demux reader's pooled buffer is checked
// out, decoded, consumed, and returned. Training loops that decode each
// payload straight into a framework tensor (and the load harness, which
// only counts bytes) fit this contract exactly; use GetBatch when sample
// lifetimes are unbounded.
func (c *Client) GetBatchFunc(ids []dataset.SampleID, fn func([]Sample) error) error {
	return c.GetBatchFuncCtx(context.Background(), ids, fn)
}

// GetBatchFuncCtx is GetBatchFunc with deadline propagation (see
// GetBatchCtx). The deadline envelope is prefixed in the same pooled
// request buffer, so the borrowed-read hot path stays allocation-free.
func (c *Client) GetBatchFuncCtx(ctx context.Context, ids []dataset.SampleID, fn func([]Sample) error) error {
	deadline, budget, err := ctxBounds(ctx)
	if err != nil {
		return err
	}
	e := wire.GetBuffer()
	if budget > 0 {
		e.U8(transport.OpDeadline)
		e.I64(int64(budget))
	}
	e.U8(opGetBatch)
	appendIDList(e, ids)
	req := e.Payload()
	tctx := c.beginTrace()
	var t0 time.Time
	if tctx.Valid() {
		req = transport.WrapTraced(req, tctx.Next())
		t0 = time.Now()
	}
	d, owner, err := c.call(req, deadline)
	wire.PutBuffer(e) // every attempt copies req before writing; safe to recycle now
	if tctx.Valid() {
		c.tracer.RecordSpan(time.Since(c.obsStart), trace.KindRPCSend, 0,
			spanArgPeer, tctx.ID, tctx.Hop, time.Since(t0))
	}
	if err != nil {
		return err
	}
	scratch := sampleSlicePool.Get().(*[]Sample)
	samples, err := decodeGetBatchResponseInto(d, (*scratch)[:0])
	if err == nil && len(samples) != len(ids) {
		err = fmt.Errorf("rpc: got %d samples for %d requests", len(samples), len(ids))
	}
	if err == nil {
		err = fn(samples)
	}
	// Drop the payload references before pooling the scratch slice, then
	// recycle the frame buffer the payloads aliased.
	for i := range samples {
		samples[i] = Sample{}
	}
	*scratch = samples[:0]
	sampleSlicePool.Put(scratch)
	wire.PutBuffer(owner)
	return err
}

// UpdateImportance pushes the job's H-list to the server (the paper's
// update_ipersample interface).
func (c *Client) UpdateImportance(items []sampling.Item) error {
	_, err := c.roundTrip(encodeUpdateImportanceRequest(items))
	return err
}

// BeginEpoch tells the server an epoch boundary passed so it can
// repartition, reset substitution state, and roll the loading thread.
func (c *Client) BeginEpoch(epoch int) error {
	var e wire.Buffer
	e.U8(opBeginEpoch)
	e.U32(uint32(epoch))
	_, err := c.roundTrip(e.B)
	return err
}

// BeginEpochPlan is BeginEpoch carrying the next epoch's known access
// sequence (the IIS sampler draws it before the epoch starts). The server
// queues its missing working set as a prefetch plan before answering; an
// epoch begun without one is not prefetched at all. Servers predating the
// opcode reject it — callers fall back to BeginEpoch on error.
func (c *Client) BeginEpochPlan(epoch int, ids []dataset.SampleID) error {
	_, err := c.roundTrip(encodeEpochPlanRequest(epoch, ids))
	return err
}

// PlanPreplace hands the server plan entries it is the future owner of
// (node-to-node plan traffic). Returns how many entries the server queued
// into its plan.
func (c *Client) PlanPreplace(ids []dataset.SampleID) (int, error) {
	d, err := c.roundTrip(encodePlanPreplaceRequest(ids))
	if err != nil {
		return 0, err
	}
	accepted := d.U32()
	if err := d.Err; err != nil {
		return 0, err
	}
	return int(accepted), nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	var e wire.Buffer
	e.U8(opStats)
	d, err := c.roundTrip(e.B)
	if err != nil {
		return Stats{}, err
	}
	return decodeStatsResponse(d)
}

// Ping checks liveness: a transport.OpPing with no body, answered StatusOK
// with none.
func (c *Client) Ping() error {
	_, err := c.roundTrip([]byte{transport.OpPing})
	return err
}
