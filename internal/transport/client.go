package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/wire"
)

// Client is one peer's view of a server: a multiplexed TCP connection (see
// mux.go) on which requests are pipelined — N goroutines can have N tagged
// frames in flight at once, matched back to their callers by a demux reader
// goroutine. Every connection is proved by one muxed ping before a request
// rides it; a server that cannot answer one is a dial error.
//
// The client is resilient by default: a transport failure triggers
// redial-and-retry under an exponential-backoff-with-jitter policy
// (retry.Default), so a long-running training job rides through server
// restarts. A retry runs on a fresh session generation, proved like the
// first. Application errors reported by the server (status frames) are never
// retried. Retrying is blind, so a protocol built on this client must keep
// its operations idempotent.
type Client struct {
	addr    string
	timeout time.Duration
	policy  retry.Policy
	rng     *rand.Rand // jitter PRNG; thread-safe via lockedSource

	// rpcTimeout bounds every round trip (0 = unbounded) with a per-call
	// timer. A deadline passed to Call tightens (never loosens) this bound.
	rpcTimeout time.Duration

	// breaker is the circuit breaker (nil = disabled), owned by the dialer so
	// it survives reconnects: Allow gates every round trip, Report feeds the
	// outcome back as breakerOK classifies it.
	breaker   *overload.Breaker
	breakerOK func(error) bool

	retries atomic.Int64 // round trips (and dials) that needed at least one retry
	redials atomic.Int64 // connections established after the first

	// muxMu guards the current session generation (nil between a failure and
	// the redial the next request makes); it is held across a redial, never
	// across a request.
	muxInflight int // per-session in-flight bound
	muxMu       sync.Mutex
	mux         *muxSession
	closed      atomic.Bool
}

// DefaultMuxInflight bounds outstanding requests per multiplexed connection
// when the dialer does not choose a limit (the -peer-inflight knob): deep
// enough to keep a batched miss path busy, shallow enough that one sick peer
// cannot absorb unbounded request goroutines.
const DefaultMuxInflight = 32

// DialConfig parameterizes Dial. The zero value selects the defaults.
type DialConfig struct {
	// Timeout bounds the TCP dial and the ping that proves the session.
	Timeout time.Duration
	// Policy is the retry schedule (zero value: retry.Default()).
	Policy retry.Policy
	// MuxInflight bounds in-flight requests per multiplexed connection
	// (<= 0 selects DefaultMuxInflight).
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

// Dial connects to a server. The policy governs both the initial dial and
// every subsequent round trip; jitter draws from a PRNG seeded
// deterministically per client so chaos tests replay. A server that answers
// the proving ping with an error status fails the dial at once (no retry:
// the next attempt would meet the same binary).
//
// breakerOK is the one policy the two protocols do not share: it maps a
// round-trip error to the health of the server for cfg.Breaker (true = the
// server answered). A cache peer that sheds counts against its breaker — the
// caller has a backend to fall back to; a directory replica that sheds does
// not — it has proved it is alive, and no other replica holds its shards'
// entries.
func Dial(addr string, cfg DialConfig, breakerOK func(error) bool) (*Client, error) {
	c := &Client{
		addr:        addr,
		timeout:     cfg.Timeout,
		policy:      cfg.Policy,
		rng:         rand.New(newLockedSource(int64(len(addr))*0x9E37 + 1)),
		muxInflight: cfg.MuxInflight,
		rpcTimeout:  cfg.RPCTimeout,
		breaker:     cfg.Breaker,
		breakerOK:   breakerOK,
	}
	if c.policy == (retry.Policy{}) {
		c.policy = retry.Default()
	}
	if c.muxInflight <= 0 {
		c.muxInflight = DefaultMuxInflight
	}
	err := retry.Do(c.policy, c.rng, time.Time{}, func(attempt int) (err error) {
		if attempt == 1 {
			c.retries.Add(1)
		}
		c.mux, err = c.dialSession(attempt > 0, time.Time{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return c, nil
}

// dialSession dials the server, starts a mux session on the connection and
// proves it with one muxed OpPing. The dial and the ping are bounded by the
// configured Timeout and, when it is non-zero, by dl: a redial made for a call
// spends at most what is left of that call's budget. redial says this is not
// the client's first connection.
func (c *Client) dialSession(redial bool, dl time.Time) (*muxSession, error) {
	if c.timeout > 0 {
		if td := time.Now().Add(c.timeout); dl.IsZero() || td.Before(dl) {
			dl = td
		}
	}
	conn, err := (*dialer.Load())(c.addr, dl)
	if err != nil {
		return nil, err
	}
	if redial {
		c.redials.Add(1)
	}
	sess := newMuxSession(conn, c.muxInflight)
	resp, owner, err := sess.doOwned([]byte{OpPing}, dl)
	if err == nil {
		if _, err = decodeStatus(resp); err != nil {
			err = retry.Permanent(fmt.Errorf("transport: dial ping: %w", err))
		}
	}
	wire.PutBuffer(owner)
	if err != nil {
		sess.close()
		return nil, err
	}
	return sess, nil
}

// DialFunc opens a connection to addr, giving up at deadline (zero:
// unbounded).
type DialFunc func(addr string, deadline time.Time) (net.Conn, error)

// dialer is the one way a Client opens a connection — every cache client,
// peer client and directory client dials through dialSession, which calls
// it. TCP unless SetDialer installed another network.
var dialer atomic.Pointer[DialFunc]

func init() {
	tcp := DialFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		return (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	})
	dialer.Store(&tcp)
}

// SetDialer makes d the way every Client opens a connection and returns a
// function that puts the previous one back. The default is TCP; tests
// install an in-memory network (transporttest.Network).
func SetDialer(d DialFunc) (restore func()) {
	prev := dialer.Swap(&d)
	return func() { dialer.Store(prev) }
}

// Close tears down the connection and waits for the demux reader to exit.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.muxMu.Lock()
	m := c.mux
	c.mux = nil
	c.muxMu.Unlock()
	if m != nil {
		m.close()
	}
	return nil
}

// Resilience reports how many round trips needed a retry and how many
// connections were established after the first over the client's lifetime.
func (c *Client) Resilience() (retries, redials int64) {
	return c.retries.Load(), c.redials.Load()
}

// bound combines a caller-supplied deadline with the configured RPCTimeout,
// returning whichever is earlier (zero time = unbounded on that side).
func (c *Client) bound(dl time.Time) time.Time {
	if c.rpcTimeout <= 0 {
		return dl
	}
	if cd := time.Now().Add(c.rpcTimeout); dl.IsZero() || cd.Before(dl) {
		return cd
	}
	return dl
}

// Call is the round-trip core: it sends one request (envelopes included; the
// mux envelope is the transport's own) and decodes the status byte of the
// response, returning a reader over the remaining body and the pooled buffer
// backing it when the transport read into one (nil otherwise). A caller that
// can prove it retains nothing from the reader recycles that buffer with
// wire.PutBuffer; one that hands response bytes out by reference drops it.
//
// The deadline — dl tightened (never loosened) by the configured RPCTimeout;
// zero on both sides = unbounded — bounds the whole call: every attempt's
// network wait, the redial a retry makes, AND the retry backoff between
// attempts, so a caller's budget is honored even when the transport hangs
// rather than fails. Transport failures are retried under the client's
// policy on a fresh session generation; status errors surface immediately,
// as *ServerError, *overload.RetryAfterError or ErrExpiredByServer. When a
// circuit breaker is configured it gates entry (open breaker = fail fast, no
// network) and absorbs the outcome.
func (c *Client) Call(req []byte, dl time.Time) (*wire.Reader, *wire.Buffer, error) {
	if b := c.breaker; b != nil && !b.Allow(time.Now()) {
		return nil, nil, fmt.Errorf("transport: %s: %w", c.addr, overload.ErrBreakerOpen)
	}
	deadline := c.bound(dl)
	var resp []byte
	var owner *wire.Buffer
	// The first attempt always runs — an already expired budget still
	// reaches the server, which answers StatusExpired and keeps the
	// accounting honest. No retry starts at or past the deadline: a doomed
	// attempt would only turn "late" into "later".
	err := retry.Do(c.policy, c.rng, deadline, func(attempt int) (err error) {
		if attempt == 1 {
			c.retries.Add(1)
		}
		resp, owner, err = c.attempt(req, deadline)
		return err
	})
	if errors.Is(err, retry.ErrDeadline) {
		err = fmt.Errorf("transport: %s: retry budget spent: %w (%w)", c.addr, ErrCallTimeout, err)
	}
	if err != nil {
		c.reportBreaker(err)
		return nil, nil, err
	}
	d, err := decodeStatus(resp)
	if err != nil {
		wire.PutBuffer(owner)
		owner = nil
	}
	c.reportBreaker(err)
	return d, owner, err
}

// decodeStatus reads the status byte of a response: a reader over the body
// of a StatusOK answer, or the error any other status maps to.
func decodeStatus(resp []byte) (*wire.Reader, error) {
	d := wire.NewReader(resp)
	switch status := d.U8(); status {
	case StatusOK:
		return d, nil
	case StatusErr:
		return nil, &ServerError{Msg: d.Str()}
	case StatusRetryAfter:
		return nil, &overload.RetryAfterError{After: time.Duration(d.I64())}
	case StatusExpired:
		return nil, ErrExpiredByServer
	default:
		return nil, fmt.Errorf("transport: unknown status %d", status)
	}
}

// reportBreaker feeds one round-trip outcome to the breaker (if any).
func (c *Client) reportBreaker(err error) {
	if b := c.breaker; b != nil {
		b.Report(time.Now(), err == nil || c.breakerOK(err))
	}
}

// attempt performs one exchange on the mux session. A failed attempt
// discards its session, so the retry that follows runs on a fresh generation
// — a new connection, proved by its ping — whose redial is bounded by
// deadline.
func (c *Client) attempt(req []byte, deadline time.Time) ([]byte, *wire.Buffer, error) {
	sess, err := c.muxSessionFor(deadline)
	if err != nil {
		return nil, nil, err
	}
	resp, owner, err := sess.doOwned(req, deadline)
	if err != nil {
		if errors.Is(err, ErrCallTimeout) {
			// The SESSION is fine — only this call ran out of time.
			// Tearing the mux down would fail its pipelined peers.
			return nil, nil, retry.Permanent(err)
		}
		c.muxFailed(sess)
		return nil, nil, err
	}
	return resp, owner, nil
}

// muxSessionFor returns a live mux session, dialing a new generation —
// bounded by dl as well as the dial timeout — when the current one is broken.
func (c *Client) muxSessionFor(dl time.Time) (*muxSession, error) {
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
	sess, err := c.dialSession(true, dl)
	if err != nil {
		return nil, fmt.Errorf("transport: redial %s: %w", c.addr, err)
	}
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
	return retry.Permanent(fmt.Errorf("transport: client for %s is closed", c.addr))
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
