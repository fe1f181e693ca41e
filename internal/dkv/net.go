package dkv

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/wire"
)

// The paper's §III-E shares the directory between nodes through "a
// distributed key-value store". This file provides that deployment shape: a
// TCP service exposing the Directory operations, and a client that cache
// nodes use in place of the in-process map. The protocol reuses the shared
// wire framing.

// Directory-service opcodes. opTraced (= 10) lives in obs.go.
const (
	opLookup      = 1
	opClaim       = 2
	opRelease     = 3
	opLen         = 4
	opRegister    = 5
	opHeartbeat   = 6
	opListNodes   = 7
	opOwnedBy     = 8
	opPurgeDead   = 9
	opLookupBatch = 11
)

// maxLookupBatch bounds one opLookupBatch request server-side. It mirrors
// the rpc layer's "unreasonable batch size" guard: a mini-batch or a scrub
// window is at most a few thousand ids, so a million-id request is either a
// corrupt frame or abuse, and the server refuses rather than allocating.
const maxLookupBatch = 1 << 20

// Response status codes.
const (
	statusOK  = 0
	statusErr = 1
)

// DirServer serves a Directory over TCP.
type DirServer struct {
	dir *Directory

	// rep is the ring-membership state when the server runs as one replica
	// of a partitioned directory (see replica.go); nil on legacy servers.
	rep *replicaState

	ln      net.Listener
	conns   sync.WaitGroup
	connMu  sync.Mutex
	connSet map[net.Conn]struct{}
	closed  chan struct{}

	// obs is the optional observability state (see obs.go); zero value =
	// everything off.
	obs dirObs

	// gate is the optional admission controller on data operations (see
	// overload.go); nil = everything admitted.
	gate *overload.Gate

	// journal, when set, receives shard hand-off events; SetJournal also
	// arms the wrapped Directory's membership-flip events.
	journal *obs.Journal
}

// SetJournal installs a control-plane event journal on the server AND the
// wrapped Directory: membership Live/Suspect/Dead flips and shard
// hand-off sweeps are appended as typed events. Call before Serve.
func (s *DirServer) SetJournal(j *obs.Journal) {
	s.journal = j
	s.dir.SetJournal(j)
}

// NewDirServer wraps dir for network service.
func NewDirServer(dir *Directory) *DirServer {
	return &DirServer{
		dir:     dir,
		connSet: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
}

// Serve accepts connections until Close. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (s *DirServer) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		s.connMu.Lock()
		s.connSet[conn] = struct{}{}
		s.connMu.Unlock()
		s.conns.Add(1)
		go func() {
			defer func() {
				s.connMu.Lock()
				delete(s.connSet, conn)
				s.connMu.Unlock()
				s.conns.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *DirServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound address once serving.
func (s *DirServer) Addr() net.Addr {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the server and closes live connections.
func (s *DirServer) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	s.connMu.Lock()
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.connSet {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Wait()
	return err
}

// serveConn is one directory connection's request loop. Directory ops are
// tiny and extremely frequent (every claim/lookup/release in the cluster
// lands here), so the loop reuses its frame reader's request buffer and
// encodes responses into pooled wire buffers — after warmup a directory
// round trip costs the server one read, one write and no allocation.
func (s *DirServer) serveConn(conn net.Conn) {
	defer conn.Close()
	rd := wire.NewFrameReader(conn)
	for {
		req, err := rd.Next()
		if err != nil {
			return
		}
		e := wire.GetBuffer()
		s.dispatchCtx(req, e, obs.TraceCtx{})
		err = wire.WriteFrame(conn, e)
		wire.PutBuffer(e)
		if err != nil {
			return
		}
	}
}

// dispatchInto decodes one request and appends the response into e. The
// request buffer may be reused after return (nothing from req is
// retained).
func (s *DirServer) dispatchInto(req []byte, e *wire.Buffer) {
	d := wire.NewReader(req)
	op := d.U8()
	if op == opDeadline {
		budget := d.I64()
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		inner := d.B[d.Off:]
		if len(inner) == 0 {
			dirError(e, errors.New("dkv: empty deadline envelope"))
			return
		}
		if inner[0] == opDeadline {
			dirError(e, errors.New("dkv: nested deadline envelope"))
			return
		}
		// The budget is the sender's remaining time at encode; directory
		// work is sub-millisecond, so arrival with nothing left is the only
		// expired case worth answering.
		if budget <= 0 {
			e.U8(statusExpired)
			return
		}
		s.dispatchInto(inner, e)
		return
	}
	// Admission: data operations only — liveness and gossip must survive
	// overload (see overload.go).
	if s.gate != nil && dirDataOp(op) {
		ok, after := s.gate.Admit(time.Now())
		if !ok {
			e.U8(statusRetryAfter)
			e.I64(int64(after))
			return
		}
		defer s.gate.Done()
	}
	switch op {
	case opLookup:
		id := dataset.SampleID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(statusOK)
		if node, ok := s.dir.Lookup(id); ok {
			e.U8(1)
			e.I64(int64(node))
		} else {
			e.U8(0)
		}
	case opLookupBatch:
		n := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		if n < 0 || n > maxLookupBatch {
			dirError(e, fmt.Errorf("dkv: unreasonable batch size %d", n))
			return
		}
		ids := make([]dataset.SampleID, n)
		for i := 0; i < n; i++ {
			ids[i] = dataset.SampleID(d.I64())
		}
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		owners := s.dir.LookupBatch(ids)
		e.U8(statusOK)
		e.U32(uint32(len(owners)))
		for _, o := range owners {
			if o.Found {
				e.U8(1)
				e.I64(int64(o.Node))
			} else {
				e.U8(0)
			}
		}
	case opClaim:
		id := dataset.SampleID(d.I64())
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(statusOK)
		if s.dir.Claim(id, node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opRelease:
		id := dataset.SampleID(d.I64())
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(statusOK)
		if s.dir.Release(id, node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opLen:
		e.U8(statusOK)
		e.I64(int64(s.dir.Len()))
	case opRegister:
		node := NodeID(d.I64())
		ttl := time.Duration(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		info := s.dir.Register(node, ttl)
		e.U8(statusOK)
		e.U8(byte(info.State))
		e.I64(int64(info.ExpiresIn))
	case opHeartbeat:
		node := NodeID(d.I64())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(statusOK)
		if s.dir.HeartbeatNode(node) {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case opListNodes:
		nodes := s.dir.ListNodes()
		e.U8(statusOK)
		e.U32(uint32(len(nodes)))
		for _, n := range nodes {
			e.I64(int64(n.ID))
			e.U8(byte(n.State))
			e.I64(int64(n.ExpiresIn))
		}
	case opOwnedBy:
		node := NodeID(d.I64())
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		ids := s.dir.OwnedBy(node, max)
		e.U8(statusOK)
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			e.I64(int64(id))
		}
	case opPurgeDead:
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		e.U8(statusOK)
		e.I64(int64(s.dir.PurgeDead(max)))
	case opRingView:
		if s.rep == nil {
			dirError(e, errors.New("dkv: not in replica mode"))
			return
		}
		sender, remote, err := decodeRingView(d)
		if err != nil {
			dirError(e, err)
			return
		}
		view := s.handleRingView(sender, remote)
		e.U8(statusOK)
		encodeRingView(e, s.rep.self, view)
	case opHandoff:
		if s.rep == nil {
			dirError(e, errors.New("dkv: not in replica mode"))
			return
		}
		sender, remote, err := decodeRingView(d)
		if err != nil {
			dirError(e, err)
			return
		}
		max := int(d.U32())
		if d.Err != nil {
			dirError(e, d.Err)
			return
		}
		dropped, epoch := s.handleHandoff(sender, remote, max)
		e.U8(statusOK)
		e.I64(int64(dropped))
		e.I64(int64(epoch))
	default:
		dirError(e, fmt.Errorf("dkv: unknown opcode %d", op))
	}
}

func dirError(e *wire.Buffer, err error) {
	e.U8(statusErr)
	e.Str(err.Error())
}

// ServerError is an application-level statusErr reply: the transport round
// trip succeeded and the server answered with an error. Distinguishing it
// from transport failure matters to the ring — a ServerError proves the
// peer is alive (e.g. a legacy server refusing a ring opcode).
type ServerError struct{ Msg string }

// Error implements the error interface.
func (e *ServerError) Error() string { return "dkv: server error: " + e.Msg }

// DirClient is a node's connection to the directory service. It satisfies
// the fallible Service contract (like the in-process Directory via Local),
// so a cache node can be wired to either.
//
// The client is resilient: transport failures are retried under an
// exponential-backoff-with-jitter policy with a fresh connection per
// attempt. Every directory operation is idempotent (Lookup is pure, Claim
// is first-claim-wins and re-claiming one's own item succeeds, Release of
// a non-owned item is a no-op), so blind retry is safe.
type DirClient struct {
	addr    string
	timeout time.Duration
	policy  retry.Policy

	// rd is conn's frame reader; setConn installs the pair, so a redial
	// drops the old connection's read-ahead with it — a late response to a
	// timed-out request is never matched to the next one.
	mu     sync.Mutex
	conn   net.Conn
	rd     *wire.FrameReader
	closed bool
	rng    *rand.Rand

	retries int64
	redials int64

	// rpcTimeout bounds each round trip via a connection deadline (see
	// SetRPCTimeout; 0 = unbounded). breaker, when installed, fails calls
	// fast while the directory is unresponsive (see SetBreaker). desynced
	// marks the connection poisoned by a timeout mid-exchange (a response
	// may still be in flight), forcing a redial before the next request.
	rpcTimeout time.Duration
	breaker    *overload.Breaker
	desynced   bool
}

// DialDir connects to a directory service with the default retry policy.
func DialDir(addr string, timeout time.Duration) (*DirClient, error) {
	return DialDirPolicy(addr, timeout, retry.Default())
}

// DialDirPolicy connects with an explicit retry policy governing the
// initial dial and every subsequent round trip.
func DialDirPolicy(addr string, timeout time.Duration, policy retry.Policy) (*DirClient, error) {
	c := &DirClient{
		addr:    addr,
		timeout: timeout,
		policy:  policy,
		rng:     rand.New(rand.NewSource(int64(len(addr))*0x5D17 + 3)),
	}
	err := retry.Do(policy, c.rng, nil, func(int) error {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return err
		}
		c.setConn(conn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dkv: dial %s: %w", addr, err)
	}
	return c, nil
}

// Close tears down the connection.
func (c *DirClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.conn.Close()
}

// Resilience reports how many round trips needed a retry and how many
// redials succeeded over the client's lifetime.
func (c *DirClient) Resilience() (retries, redials int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries, c.redials
}

// redial replaces the connection (mu held).
func (c *DirClient) redial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.conn.Close()
	c.setConn(conn)
	c.redials++
	return nil
}

// setConn installs a connection together with its fresh frame reader.
func (c *DirClient) setConn(conn net.Conn) {
	c.conn, c.rd = conn, wire.NewFrameReader(conn)
}

func (c *DirClient) roundTrip(req *wire.Buffer) (*wire.Reader, error) {
	return c.roundTripDeadline(req, time.Time{})
}

// roundTripDeadline is the round-trip core. A non-zero deadline (or, when
// zero, the configured rpcTimeout) bounds each attempt's network wait via
// a connection deadline, and the retry loop stops spawning attempts once
// the deadline passes. The breaker (if installed) gates entry and absorbs
// the outcome. req is the pooled frame buffer (wire.GetBuffer) the request
// was encoded into: sent as is, once per attempt, recycled on return.
func (c *DirClient) roundTripDeadline(req *wire.Buffer, dl time.Time) (*wire.Reader, error) {
	defer wire.PutBuffer(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.breaker; b != nil && !b.Allow(time.Now()) {
		return nil, fmt.Errorf("dkv: %s: %w", c.addr, overload.ErrBreakerOpen)
	}
	if dl.IsZero() && c.rpcTimeout > 0 {
		dl = time.Now().Add(c.rpcTimeout)
	}
	var resp []byte
	retried := false
	err := retry.Do(c.policy, c.rng, nil, func(attempt int) error {
		if c.closed {
			return retry.Permanent(fmt.Errorf("dkv: client for %s is closed", c.addr))
		}
		if attempt > 0 {
			retried = true
			if !dl.IsZero() && !time.Now().Before(dl) {
				return retry.Permanent(fmt.Errorf("dkv: %s: retry budget spent: %w", c.addr, overload.ErrExpired))
			}
			if err := c.redial(); err != nil {
				return fmt.Errorf("dkv: redial %s: %w", c.addr, err)
			}
			c.desynced = false
		} else if c.desynced {
			// A previous call timed out mid-exchange: the old connection may
			// still deliver that stale response, so it must not be reused.
			if err := c.redial(); err != nil {
				return fmt.Errorf("dkv: redial %s: %w", c.addr, err)
			}
			c.desynced = false
		}
		if !dl.IsZero() {
			c.conn.SetDeadline(dl)
			defer c.conn.SetDeadline(time.Time{})
		}
		if err := wire.WriteFrame(c.conn, req); err != nil {
			if isTimeoutErr(err) {
				c.desynced = true
				return retry.Permanent(fmt.Errorf("dkv: send: %w", err))
			}
			return fmt.Errorf("dkv: send: %w", err)
		}
		r, err := wire.ReadFrame(c.rd)
		if err != nil {
			if isTimeoutErr(err) {
				// Request is out, response unread: the conn is desynchronized
				// and a retry would only turn "late" into "later".
				c.desynced = true
				return retry.Permanent(fmt.Errorf("dkv: receive: %w", err))
			}
			return fmt.Errorf("dkv: receive: %w", err)
		}
		resp = r
		return nil
	})
	if retried {
		c.retries++
	}
	if err != nil {
		c.reportBreakerLocked(err)
		return nil, err
	}
	d := wire.NewReader(resp)
	var callErr error
	switch status := d.U8(); status {
	case statusOK:
		c.reportBreakerLocked(nil)
		return d, nil
	case statusErr:
		callErr = &ServerError{Msg: d.Str()}
	case statusRetryAfter:
		callErr = &overload.RetryAfterError{After: time.Duration(d.I64())}
	case statusExpired:
		callErr = errDirExpired
	default:
		callErr = fmt.Errorf("dkv: unknown status %d", status)
	}
	c.reportBreakerLocked(callErr)
	return nil, callErr
}

// reportBreakerLocked feeds one outcome to the breaker (mu held; the
// Breaker has its own mutex but keeping the call under mu keeps the
// install-before-share contract trivially safe).
func (c *DirClient) reportBreakerLocked(err error) {
	if b := c.breaker; b != nil {
		b.Report(time.Now(), dirBreakerOutcomeOK(err))
	}
}

// Lookup reports which node owns id, if any.
func (c *DirClient) Lookup(id dataset.SampleID) (NodeID, bool, error) {
	e := wire.GetBuffer()
	e.U8(opLookup)
	e.I64(int64(id))
	d, err := c.roundTrip(e)
	if err != nil {
		return 0, false, err
	}
	if d.U8() == 0 {
		return 0, false, d.Err
	}
	return NodeID(d.I64()), true, d.Err
}

// LookupBatch resolves the owners of many ids in ONE wire round trip,
// aligned with ids. This is the amortization primitive of the batched miss
// path and the anti-entropy scrubber: a mini-batch's worth of directory
// questions costs one frame each way instead of len(ids) serial exchanges.
// An empty ids slice short-circuits without touching the network.
func (c *DirClient) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	e := wire.GetBuffer()
	e.U8(opLookupBatch)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
	d, err := c.roundTrip(e)
	if err != nil {
		return nil, err
	}
	return decodeLookupBatchResponse(d, len(ids))
}

// decodeLookupBatchResponse decodes the per-id owner entries of an
// opLookupBatch response, aligned with the want ids the caller sent.
func decodeLookupBatchResponse(d *wire.Reader, want int) ([]Owner, error) {
	n := int(d.U32())
	if d.Err != nil {
		return nil, d.Err
	}
	if n != want {
		return nil, fmt.Errorf("dkv: lookup batch length mismatch: sent %d, got %d", want, n)
	}
	out := make([]Owner, n)
	for i := 0; i < n; i++ {
		if d.U8() == 1 {
			out[i] = Owner{Node: NodeID(d.I64()), Found: true}
		}
		if d.Err != nil {
			return nil, d.Err
		}
	}
	return out, d.Err
}

// Claim registers node as the owner of id (first claim wins).
func (c *DirClient) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	e := wire.GetBuffer()
	e.U8(opClaim)
	e.I64(int64(id))
	e.I64(int64(node))
	d, err := c.roundTrip(e)
	if err != nil {
		return false, err
	}
	return d.U8() == 1, d.Err
}

// Release removes node's ownership of id.
func (c *DirClient) Release(id dataset.SampleID, node NodeID) (bool, error) {
	e := wire.GetBuffer()
	e.U8(opRelease)
	e.I64(int64(id))
	e.I64(int64(node))
	d, err := c.roundTrip(e)
	if err != nil {
		return false, err
	}
	return d.U8() == 1, d.Err
}

// Len reports the number of owned items.
func (c *DirClient) Len() (int, error) {
	e := wire.GetBuffer()
	e.U8(opLen)
	d, err := c.roundTrip(e)
	if err != nil {
		return 0, err
	}
	return int(d.I64()), d.Err
}

// Register grants (or re-grants) node a lease of the given TTL (<= 0
// selects the directory default). Registration is idempotent — re-running
// it just re-stamps the lease — so blind retry under the client's backoff
// policy is safe.
func (c *DirClient) Register(node NodeID, ttl time.Duration) (NodeInfo, error) {
	e := wire.GetBuffer()
	e.U8(opRegister)
	e.I64(int64(node))
	e.I64(int64(ttl))
	d, err := c.roundTrip(e)
	if err != nil {
		return NodeInfo{}, err
	}
	info := NodeInfo{ID: node, State: NodeState(d.U8()), ExpiresIn: time.Duration(d.I64())}
	return info, d.Err
}

// Heartbeat renews node's lease; renewed == false means the lease lapsed
// and the node must Register again and reconcile its ownership.
func (c *DirClient) Heartbeat(node NodeID) (bool, error) {
	e := wire.GetBuffer()
	e.U8(opHeartbeat)
	e.I64(int64(node))
	d, err := c.roundTrip(e)
	if err != nil {
		return false, err
	}
	return d.U8() == 1, d.Err
}

// ListNodes reports every registered node's membership state.
func (c *DirClient) ListNodes() ([]NodeInfo, error) {
	e := wire.GetBuffer()
	e.U8(opListNodes)
	d, err := c.roundTrip(e)
	if err != nil {
		return nil, err
	}
	n := int(d.U32())
	out := make([]NodeInfo, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, NodeInfo{
			ID:        NodeID(d.I64()),
			State:     NodeState(d.U8()),
			ExpiresIn: time.Duration(d.I64()),
		})
		if d.Err != nil {
			return nil, d.Err
		}
	}
	return out, d.Err
}

// OwnedBy reports up to max of node's directory entries (sorted).
func (c *DirClient) OwnedBy(node NodeID, max int) ([]dataset.SampleID, error) {
	if max < 0 {
		max = 0 // 0 means "all" on the server
	}
	e := wire.GetBuffer()
	e.U8(opOwnedBy)
	e.I64(int64(node))
	e.U32(uint32(max))
	d, err := c.roundTrip(e)
	if err != nil {
		return nil, err
	}
	n := int(d.U32())
	out := make([]dataset.SampleID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, dataset.SampleID(d.I64()))
		if d.Err != nil {
			return nil, d.Err
		}
	}
	return out, d.Err
}

// PurgeDead garbage-collects up to max Dead-owned entries server-side.
func (c *DirClient) PurgeDead(max int) (int, error) {
	if max < 0 {
		max = 0 // 0 means "all" on the server
	}
	e := wire.GetBuffer()
	e.U8(opPurgeDead)
	e.U32(uint32(max))
	d, err := c.roundTrip(e)
	if err != nil {
		return 0, err
	}
	return int(d.I64()), d.Err
}
