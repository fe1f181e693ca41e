package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/trace"
	"icache/internal/wire"
)

// ErrDeadlineExceeded classifies every deadline-driven failure of a round
// trip — a local per-call timeout as well as the server answering
// statusExpired. Callers (the load harness's goodput accounting) match it
// with errors.Is; the two flavors below stay distinguishable internally
// because only the local timeout counts against the circuit breaker.
var ErrDeadlineExceeded = errors.New("rpc: deadline exceeded")

// errCallTimeout: the client gave up waiting locally (per-RPC timer or
// SetDeadline fired). The peer may be hung — a breaker failure.
var errCallTimeout = fmt.Errorf("call timed out: %w", ErrDeadlineExceeded)

// errExpiredByServer: the server answered promptly that the budget had run
// out before it would start the work. The peer is healthy — not a breaker
// failure.
var errExpiredByServer = fmt.Errorf("server dropped expired request: %w", ErrDeadlineExceeded)

// ServerError is an application error the server reported in a statusErr
// frame. The transport worked; these are never retried and never trip the
// circuit breaker.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "rpc: server error: " + e.Msg }

// Client is the framework-side iCache client module (the role the paper's
// iCacheImageFolder plays inside PyTorch): it forwards data-loader requests
// to the cache server and pushes the job's H-list after importance updates.
//
// A Client owns one multiplexed TCP connection (see mux.go): requests are
// pipelined — N goroutines can have N tagged frames in flight at once,
// matched back to their callers by a demux reader goroutine. A capability
// handshake at dial time confirms the server speaks that framing; one that
// does not is a dial error.
//
// The client is resilient by default: a transport failure triggers
// redial-and-retry under an exponential-backoff-with-jitter policy
// (retry.Default), so a long-running training job rides through cache
// server restarts — servers come back warm via checkpoints. The handshake
// re-runs on every redial. Application errors reported by the server
// (status frames) are never retried.
type Client struct {
	addr    string
	timeout time.Duration
	policy  retry.Policy
	rng     *rand.Rand          // jitter PRNG; thread-safe via lockedSource
	sleep   func(time.Duration) // nil = time.Sleep; tests may stub

	// rpcTimeout bounds every round trip (0 = unbounded): a per-call timer
	// on mux calls, a SetDeadline on the one-shot retry connection. A context
	// deadline passed through the *Ctx APIs tightens (never loosens) this
	// bound.
	rpcTimeout time.Duration

	// breaker is the per-peer circuit breaker (nil = disabled). Shared with
	// the owner (the distState keeps one per NodeID across reconnects):
	// Allow gates every round trip, Report feeds transport outcomes back.
	breaker *overload.Breaker

	retries int64 // atomic: round trips that needed at least one retry
	redials int64 // atomic: successful connection re-establishments

	// Transport state (mux.go). muxMu guards the current session generation
	// (nil between a failure and the redial the next request makes); it is
	// held across a redial, never across a request.
	muxInflight int // per-session in-flight bound
	muxMu       sync.Mutex
	mux         *muxSession
	closed      atomic.Bool

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

// defaultMuxInflight bounds outstanding requests per multiplexed
// connection when the dialer does not choose a limit (the -peer-inflight
// knob): deep enough to keep a batched miss path busy, shallow enough that
// one sick peer cannot absorb unbounded request goroutines.
const defaultMuxInflight = 32

// DialConfig parameterizes DialConfigured. The zero value selects the
// defaults Dial uses.
type DialConfig struct {
	// Timeout bounds the TCP dial and the capability handshake.
	Timeout time.Duration
	// Policy is the retry schedule (zero value: retry.Default()).
	Policy retry.Policy
	// MuxInflight bounds in-flight requests per multiplexed connection
	// (<= 0 selects defaultMuxInflight).
	MuxInflight int
	// RPCTimeout bounds each round trip (0 = unbounded) with a per-call
	// timer, so one slow response cannot poison the shared pipelined
	// connection.
	RPCTimeout time.Duration
	// Breaker, when non-nil, is the circuit breaker consulted before and
	// reported to after every round trip. Owned by the caller so it survives
	// client reconnects (the peer table keeps one per node).
	Breaker *overload.Breaker
}

// Dial connects to an iCache server with the default retry policy.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialPolicy(addr, timeout, retry.Default())
}

// DialPolicy connects with an explicit retry policy. The policy governs
// both the initial dial and every subsequent round trip. Jitter draws from
// a PRNG seeded deterministically per client so chaos tests replay.
func DialPolicy(addr string, timeout time.Duration, policy retry.Policy) (*Client, error) {
	return DialConfigured(addr, DialConfig{Timeout: timeout, Policy: policy})
}

// DialConfigured connects with explicit transport configuration. A server
// that does not advertise the mux capability fails the dial at once (no
// retry: the next attempt would meet the same binary).
func DialConfigured(addr string, cfg DialConfig) (*Client, error) {
	policy := cfg.Policy
	if policy == (retry.Policy{}) {
		policy = retry.Default()
	}
	inflight := cfg.MuxInflight
	if inflight <= 0 {
		inflight = defaultMuxInflight
	}
	c := &Client{
		addr:        addr,
		timeout:     cfg.Timeout,
		policy:      policy,
		rng:         rand.New(newLockedSource(int64(len(addr))*0x9E37 + 1)),
		muxInflight: inflight,
		rpcTimeout:  cfg.RPCTimeout,
		breaker:     cfg.Breaker,
		obsStart:    time.Now(),
	}
	err := retry.Do(policy, c.rng, c.sleep, func(int) (err error) {
		c.mux, err = c.dialSession()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return c, nil
}

// dialSession dials the server, runs the capability handshake and starts a
// mux session on the connection, reading through the frame reader the
// handshake used.
func (c *Client) dialSession() (*muxSession, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	rd := wire.NewFrameReader(conn)
	if err := negotiate(conn, rd, c.timeout); err != nil {
		conn.Close()
		return nil, err
	}
	return newMuxSession(conn, rd, c.muxInflight), nil
}

// Close tears down the connection and the demux reader.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.muxMu.Lock()
	m := c.mux
	c.mux = nil
	c.muxMu.Unlock()
	if m != nil {
		m.close() // closes the conn and waits for the demux reader to exit
	}
	return nil
}

// Resilience reports how many round trips needed a retry and how many
// redials succeeded over the client's lifetime.
func (c *Client) Resilience() (retries, redials int64) {
	return atomic.LoadInt64(&c.retries), atomic.LoadInt64(&c.redials)
}

// roundTrip sends one request frame and decodes the status byte of the
// response, returning the remaining body. Transport failures (broken
// connection, failed write/read) are retried under the client's policy
// with a fresh connection per attempt; server status errors surface
// immediately.
func (c *Client) roundTrip(req []byte) (*reader, error) {
	d, _, err := c.roundTripOwned(req)
	// The pooled backing buffer (if any) is intentionally dropped, not
	// recycled: this path hands decoded bytes out by reference with an
	// unbounded lifetime. Borrowed-read callers use roundTripOwned.
	return d, err
}

// roundTripOwned is roundTrip, additionally returning the pooled buffer
// backing the response when the transport read into one (nil otherwise).
// A caller that can prove it retains nothing from the reader recycles the
// buffer with wire.PutBuffer; status errors recycle it internally.
func (c *Client) roundTripOwned(req []byte) (*reader, *wire.Buffer, error) {
	return c.roundTripDeadline(req, c.callDeadline())
}

// callDeadline is the default per-call bound from the client's configured
// RPCTimeout (zero time = unbounded).
func (c *Client) callDeadline() time.Time {
	if c.rpcTimeout > 0 {
		return time.Now().Add(c.rpcTimeout)
	}
	return time.Time{}
}

// tightenDeadline combines a caller-supplied deadline with the client's
// configured RPCTimeout, returning whichever bound is earlier (zero time =
// unbounded on that side).
func (c *Client) tightenDeadline(dl time.Time) time.Time {
	cd := c.callDeadline()
	if dl.IsZero() {
		return cd
	}
	if cd.IsZero() || dl.Before(cd) {
		return dl
	}
	return cd
}

// roundTripDeadline is the round-trip core. A non-zero deadline bounds the
// whole call — every attempt's network wait AND the retry backoff between
// attempts — so a caller's budget is honored even when the transport hangs
// rather than fails. When a circuit breaker is configured it gates entry
// (open breaker = fail fast, no network) and absorbs the outcome.
func (c *Client) roundTripDeadline(req []byte, deadline time.Time) (*reader, *wire.Buffer, error) {
	if b := c.breaker; b != nil && !b.Allow(time.Now()) {
		return nil, nil, fmt.Errorf("rpc: %s: %w", c.addr, overload.ErrBreakerOpen)
	}
	var t0 time.Time
	if c.rtHist != nil {
		t0 = time.Now()
		defer func() { c.rtHist.Since(t0) }()
	}
	var resp []byte
	var owner *wire.Buffer
	retried := false
	err := retry.Do(c.policy, c.rng, c.sleep, func(attempt int) error {
		if attempt > 0 {
			retried = true
			// Budget check before a retry: a doomed attempt would only turn
			// "late" into "later". The first attempt always runs — an already
			// expired budget still reaches the server, which answers
			// statusExpired and keeps the accounting honest.
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return retry.Permanent(fmt.Errorf("rpc: %s: retry budget spent: %w", c.addr, errCallTimeout))
			}
		}
		r, o, err := c.attempt(req, attempt > 0, deadline)
		if err != nil {
			return err
		}
		resp, owner = r, o
		return nil
	})
	if retried {
		atomic.AddInt64(&c.retries, 1)
	}
	if err != nil {
		c.reportBreaker(err)
		return nil, nil, err
	}
	d := newReader(resp)
	var callErr error
	switch status := d.u8(); status {
	case statusOK:
		c.reportBreaker(nil)
		return d, owner, nil
	case statusErr:
		callErr = &ServerError{Msg: d.str()}
	case statusRetryAfter:
		callErr = &overload.RetryAfterError{After: time.Duration(d.i64())}
	case statusExpired:
		callErr = errExpiredByServer
	default:
		callErr = fmt.Errorf("rpc: unknown status %d", status)
	}
	wire.PutBuffer(owner)
	c.reportBreaker(callErr)
	return nil, nil, callErr
}

// reportBreaker feeds one round-trip outcome to the breaker (if any).
func (c *Client) reportBreaker(err error) {
	if b := c.breaker; b != nil {
		b.Report(time.Now(), breakerOutcomeOK(err))
	}
}

// breakerOutcomeOK maps a round-trip result to peer health. Application
// errors (statusErr) and server-side expiry mean the peer answered — those
// are successes for the circuit. Transport failures, local timeouts, and
// shed rejections (a browned-out peer asking callers to go away) are the
// failures that should open it.
func breakerOutcomeOK(err error) bool {
	if err == nil {
		return true
	}
	var se *ServerError
	if errors.As(err, &se) {
		return true
	}
	return errors.Is(err, errExpiredByServer)
}

// attempt performs one exchange: on the mux session, or — for a retry — on
// a ONE-SHOT bare-frame connection instead of re-establishing the mux
// session inline: the retry's success must not depend on the mux machinery
// (handshake, demux reader, pipelined peers on the same connection) coming
// back healthy — a plain dial-exchange-close is the most failure-independent
// path available, and the next regular request re-establishes the session
// lazily. This also breaks deterministic failure resonance: a fault schedule
// that keys on per-connection I/O patterns (the chaos suite's DropEvery
// rules) would otherwise hit a freshly handshaken session at the same
// relative offset on every retry.
func (c *Client) attempt(req []byte, isRetry bool, deadline time.Time) ([]byte, *wire.Buffer, error) {
	if isRetry {
		resp, err := c.oneShot(req, deadline)
		return resp, nil, err
	}
	sess, err := c.muxSessionFor()
	if err != nil {
		return nil, nil, err
	}
	resp, owner, err := sess.doOwned(req, deadline)
	if err != nil {
		if errors.Is(err, errCallTimeout) {
			// The SESSION is fine — only this call ran out of time.
			// Tearing the mux down would fail its pipelined peers.
			return nil, nil, retry.Permanent(err)
		}
		c.muxFailed(sess)
		return nil, nil, err
	}
	return resp, owner, nil
}

// oneShot performs one bare-frame exchange — one frame out, one frame back —
// on a private dial-and-close connection, never touching the mux session (a
// racing goroutine may have installed a healthy new generation we must not
// disturb). It is the only bare-frame exchange besides the handshake ping.
func (c *Client) oneShot(req []byte, deadline time.Time) ([]byte, error) {
	if c.closed.Load() {
		return nil, c.errClosed()
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: redial %s: %w", c.addr, err)
	}
	defer conn.Close()
	if !deadline.IsZero() {
		conn.SetDeadline(deadline)
	}
	atomic.AddInt64(&c.redials, 1)
	if err := wire.WritePayload(conn, req); err != nil {
		return nil, fmt.Errorf("rpc: send: %w", err)
	}
	resp, err := wire.ReadFrame(conn) // one reply, then closed: no read-ahead needed
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// The SetDeadline expired: a call timeout, not a transport fault.
			return nil, retry.Permanent(fmt.Errorf("rpc: receive: %w", errCallTimeout))
		}
		return nil, fmt.Errorf("rpc: receive: %w", err)
	}
	return resp, nil
}

// muxSessionFor returns a live mux session, dialing a new generation when
// the current one is broken.
func (c *Client) muxSessionFor() (*muxSession, error) {
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	if c.closed.Load() {
		return nil, c.errClosed()
	}
	if c.mux != nil && !c.mux.broken() {
		return c.mux, nil
	}
	if c.mux != nil {
		c.mux.close()
		c.mux = nil
	}
	sess, err := c.dialSession()
	if err != nil {
		return nil, fmt.Errorf("rpc: redial %s: %w", c.addr, err)
	}
	atomic.AddInt64(&c.redials, 1)
	c.mux = sess
	return sess, nil
}

// muxFailed discards a broken session generation so the next attempt dials
// fresh (generation-based redial: a racing goroutine that already installed
// a new session is left alone).
func (c *Client) muxFailed(sess *muxSession) {
	c.muxMu.Lock()
	if c.mux == sess {
		c.mux = nil
	}
	c.muxMu.Unlock()
	sess.close()
}

func (c *Client) errClosed() error {
	return retry.Permanent(fmt.Errorf("rpc: client for %s is closed", c.addr))
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
// remaining time is encoded into the request's opDeadline envelope, so the
// server (and every peer/directory hop it fans out to) inherits the budget
// and drops work that can no longer finish in time. The same deadline
// bounds the local wait (a hung transport cannot outlive the context).
func (c *Client) GetBatchCtx(ctx context.Context, ids []dataset.SampleID) ([]Sample, error) {
	deadline, budget, err := c.ctxBounds(ctx)
	if err != nil {
		return nil, err
	}
	req := encodeGetBatchRequest(ids)
	tctx := c.beginTrace()
	var t0 time.Time
	if tctx.Valid() {
		req = WrapTraced(req, tctx.Next())
		t0 = time.Now()
	}
	if budget > 0 {
		req = encodeDeadlineRequest(budget, req)
	}
	d, _, err := c.roundTripDeadline(req, deadline)
	if tctx.Valid() {
		c.tracer.RecordSpan(time.Since(c.obsStart), trace.KindRPCSend, 0,
			spanArgPeer, tctx.ID, tctx.Hop, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	samples, err := decodeGetBatchResponse(d)
	if err != nil {
		return nil, err
	}
	if len(samples) != len(ids) {
		return nil, fmt.Errorf("rpc: got %d samples for %d requests", len(samples), len(ids))
	}
	return samples, nil
}

// ctxBounds merges a context deadline with the configured per-call
// RPCTimeout: the local bound is the earlier of the two, and the wire
// budget (0 = none) is the context's remaining time. An already-done
// context fails fast without a network round trip.
func (c *Client) ctxBounds(ctx context.Context) (deadline time.Time, budget time.Duration, err error) {
	if ctxErr := ctx.Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return time.Time{}, 0, fmt.Errorf("rpc: %w", errCallTimeout)
		}
		return time.Time{}, 0, ctxErr
	}
	deadline = c.callDeadline()
	if cd, ok := ctx.Deadline(); ok {
		budget = time.Until(cd)
		if budget <= 0 {
			budget = 1 // raced to expiry: still send, server answers statusExpired
		}
		if deadline.IsZero() || cd.Before(deadline) {
			deadline = cd
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
// GetBatchCtx). The opDeadline envelope is prefixed in the same pooled
// request buffer, so the borrowed-read hot path stays allocation-free.
func (c *Client) GetBatchFuncCtx(ctx context.Context, ids []dataset.SampleID, fn func([]Sample) error) error {
	deadline, budget, err := c.ctxBounds(ctx)
	if err != nil {
		return err
	}
	e := wire.GetBuffer()
	if budget > 0 {
		e.U8(opDeadline)
		e.I64(int64(budget))
	}
	e.U8(opGetBatch)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
	req := e.Payload()
	tctx := c.beginTrace()
	var t0 time.Time
	if tctx.Valid() {
		req = WrapTraced(req, tctx.Next())
		t0 = time.Now()
	}
	d, owner, err := c.roundTripDeadline(req, deadline)
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
	var e buffer
	e.u8(opBeginEpoch)
	e.u32(uint32(epoch))
	_, err := c.roundTrip(e.payload())
	return err
}

// BeginEpochPlan is BeginEpoch carrying the next epoch's known access
// sequence (the IIS sampler draws it before the epoch starts). A
// clairvoyant server installs it as a prefetch plan; a reactive one still
// crosses the boundary and ignores the schedule. Servers predating the
// opcode reject it — callers fall back to BeginEpoch on error.
func (c *Client) BeginEpochPlan(epoch int, ids []dataset.SampleID) error {
	_, err := c.roundTrip(encodeEpochPlanRequest(epoch, ids))
	return err
}

// PlanPreplace hands the server plan entries it is the future owner of
// (planner-to-planner traffic). Returns how many entries the server
// accepted into its plan (0 when its planner is off).
func (c *Client) PlanPreplace(ids []dataset.SampleID) (int, error) {
	d, err := c.roundTrip(encodePlanPreplaceRequest(ids))
	if err != nil {
		return 0, err
	}
	accepted := d.u32()
	if err := d.err(); err != nil {
		return 0, err
	}
	return int(accepted), nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	var e buffer
	e.u8(opStats)
	d, err := c.roundTrip(e.payload())
	if err != nil {
		return Stats{}, err
	}
	return decodeStatsResponse(d)
}

// Ping checks liveness: a bare opPing, answered with the bare status. (The
// dial-time handshake is a ping carrying a capability word; see negotiate
// in mux.go.)
func (c *Client) Ping() error {
	var e buffer
	e.u8(opPing)
	_, err := c.roundTrip(e.payload())
	return err
}

// lockedSource is a mutex-guarded rand.Source64: the mux transport draws
// retry jitter from concurrent request goroutines, and the stdlib sources
// are not safe for concurrent use. Seeded deterministically per client —
// draw VALUES replay under a fixed seed, though the interleaving across
// goroutines is scheduling-dependent (jitter only perturbs backoff timing,
// never logical outcomes).
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func newLockedSource(seed int64) *lockedSource {
	return &lockedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}
