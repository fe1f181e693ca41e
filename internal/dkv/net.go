package dkv

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/wire"
)

// The paper's §III-E shares the directory between nodes through "a
// distributed key-value store". This file provides that deployment shape: a
// TCP service exposing the Directory operations, and a client that cache
// nodes use in place of the in-process map. Both ride internal/transport —
// the same connections, envelopes, status codes, retry and admission as the
// cache protocol; this file is the directory's opcodes, their encoders and
// the handler that answers them.

// Directory-service opcodes. 5, 7, 9 and 10 are the transport's (ping and the
// trace, mux and deadline envelopes): opRegister, opListNodes and opPurgeDead
// held those numbers before the directory moved onto the transport, so a
// DirClient and a DirServer from either side of that move do not interoperate
// (the dial fails). 1 was the per-id lookup and 2 and 3 the per-id claim and
// release: a lookup is a one-id opLookupBatch, ownership writes ride
// opOwnBatch (own.go). 12 and 13 were the replicas' ring-view gossip and shard
// hand-off: a replica holds no ring view, the sharded client's is the only one
// (sharded.go). A server answers 1, 2, 3, 12 and 13 as unknown opcodes. Build
// every binary from one commit: an older replica-mode icache-dkv still
// gossips, reads that answer as proof of life, and sweeps entries by a view
// no client routes by.
const (
	opLen         = 4
	opHeartbeat   = 6
	opOwnedBy     = 8
	opLookupBatch = 11
	opRegister    = 14
	opListNodes   = 15
	opPurgeDead   = 16
	opOwnBatch    = 17
)

// maxLookupBatch bounds one opLookupBatch request server-side. It mirrors
// the rpc layer's "unreasonable batch size" guard: a mini-batch or a scrub
// window is at most a few thousand ids, so a million-id request is either a
// corrupt frame or abuse, and the server refuses rather than allocating.
const maxLookupBatch = 1 << 20

// DirServer serves a Directory over TCP: a handler registered on a
// transport.Server.
type DirServer struct {
	dir *Directory
	t   *transport.Server

	// obs is the optional observability state (see obs.go); zero value =
	// everything off.
	obs dirObs

	ownFrames, ownOps atomic.Int64 // see OwnershipStats
}

// OwnershipStats reports the opOwnBatch frames the server has applied and
// the claims and releases they carried. Frames per admitted sample is a
// node's directory round trips on its fill path; ops per frame is how much
// the clients' combiners folded together.
func (s *DirServer) OwnershipStats() (frames, ops int64) {
	return s.ownFrames.Load(), s.ownOps.Load()
}

// NewDirServer wraps dir for network service.
func NewDirServer(dir *Directory) *DirServer {
	s := &DirServer{dir: dir}
	s.t = transport.NewServer(transport.Handler{Route: dirRoute, Serve: s.serve})
	return s
}

// Serve accepts connections until Close. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (s *DirServer) Serve(ln net.Listener) error { return s.t.Serve(ln) }

// ListenAndServe listens on addr and serves until Close.
func (s *DirServer) ListenAndServe(addr string) error { return s.t.ListenAndServe(addr) }

// Addr reports the bound address once serving.
func (s *DirServer) Addr() net.Addr { return s.t.Addr() }

// Close stops the server and closes live connections.
func (s *DirServer) Close() error { return s.t.Close() }

// dispatch decodes one request and appends the body of its StatusOK answer
// to e; a returned error is answered StatusErr in its place. The request
// buffer is reused after return (nothing from req is retained).
func (s *DirServer) dispatch(req []byte, e *wire.Buffer) error {
	d := wire.NewReader(req)
	switch op := d.U8(); op {
	case opLookupBatch:
		n := int(d.U32())
		if d.Err != nil {
			return d.Err
		}
		if n < 0 || n > maxLookupBatch {
			return fmt.Errorf("dkv: unreasonable batch size %d", n)
		}
		ids := make([]dataset.SampleID, n)
		for i := 0; i < n; i++ {
			ids[i] = dataset.SampleID(d.I64())
		}
		if d.Err != nil {
			return d.Err
		}
		owners := s.dir.LookupBatch(ids)
		e.U32(uint32(len(owners)))
		for _, o := range owners {
			encodeOwner(e, o.Node, o.Found)
		}
	case opOwnBatch:
		ops, err := decodeOwnBatch(d)
		if err != nil {
			return err
		}
		s.ownFrames.Add(1)
		s.ownOps.Add(int64(len(ops)))
		e.U32(uint32(len(ops)))
		s.dir.applyOwnership(ops, func(v bool) { encodeBool(e, v) })
	case opLen:
		e.I64(int64(s.dir.Len()))
	case opRegister:
		node := NodeID(d.I64())
		ttl := time.Duration(d.I64())
		if d.Err != nil {
			return d.Err
		}
		info := s.dir.Register(node, ttl)
		e.U8(byte(info.State))
		e.I64(int64(info.ExpiresIn))
	case opHeartbeat:
		node := NodeID(d.I64())
		if d.Err != nil {
			return d.Err
		}
		encodeBool(e, s.dir.HeartbeatNode(node))
	case opListNodes:
		nodes := s.dir.ListNodes()
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
			return d.Err
		}
		ids := s.dir.OwnedBy(node, max)
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			e.I64(int64(id))
		}
	case opPurgeDead:
		max := int(d.U32())
		if d.Err != nil {
			return d.Err
		}
		e.I64(int64(s.dir.PurgeDead(max)))
	default:
		return fmt.Errorf("dkv: unknown opcode %d", op)
	}
	return nil
}

func encodeBool(e *wire.Buffer, ok bool) {
	if ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// encodeOwner appends one lookup answer: u8 found | i64 node-if-found.
func encodeOwner(e *wire.Buffer, node NodeID, found bool) {
	encodeBool(e, found)
	if found {
		e.I64(int64(node))
	}
}

// DirClient is a node's connection to the directory service: the directory
// protocol's op encoders over a transport.Client. It satisfies the fallible
// Service contract (like the in-process Directory via Local), so a cache
// node can be wired to either, and CtxService, so a request's trace context
// and deadline reach the directory hop.
//
// The transport pipelines calls on one connection (N goroutines have N
// lookups in flight), bounds each with a per-call timer that forgets one
// request id instead of tearing the connection down, and retries transport
// failures under an exponential-backoff-with-jitter policy with a fresh
// connection per attempt. Every directory operation is idempotent (Lookup is
// pure, Claim is first-claim-wins and re-claiming one's own item succeeds,
// Release of a non-owned item is a no-op), so blind retry is safe. Claims and
// releases go through the combiner (own.go).
type DirClient struct {
	t   *transport.Client
	own combiner
}

// DialConfig parameterizes a directory dial — DialDirConfigured for one
// service, DialSharded for each replica of a partitioned one. The zero value
// selects the defaults DialDir uses.
type DialConfig struct {
	// Timeout bounds the TCP dial and the ping that proves the session.
	Timeout time.Duration
	// Policy is the retry schedule of the dial and of every round trip (zero
	// value: retry.Default()).
	Policy retry.Policy
	// RPCTimeout bounds each round trip (0 = unbounded): a directory that
	// accepts and never answers costs one bounded stall, not a TCP timeout.
	RPCTimeout time.Duration
	// Breaker, when non-nil, arms a circuit breaker per dialled service:
	// after Threshold consecutive transport failures or local timeouts the
	// client fails fast (overload.ErrBreakerOpen) without touching the
	// network until a half-open probe succeeds.
	Breaker *overload.BreakerConfig
}

// DialDir connects to a directory service with the default retry policy.
func DialDir(addr string, timeout time.Duration) (*DirClient, error) {
	return DialDirConfigured(addr, DialConfig{Timeout: timeout})
}

// DialDirConfigured connects with explicit configuration. A server that does
// not answer the transport's muxed ping (an icache-dkv from before the
// directory moved onto it) fails the dial.
func DialDirConfigured(addr string, cfg DialConfig) (*DirClient, error) {
	tcfg := transport.DialConfig{Timeout: cfg.Timeout, Policy: cfg.Policy, RPCTimeout: cfg.RPCTimeout}
	if cfg.Breaker != nil {
		tcfg.Breaker = overload.NewBreaker(*cfg.Breaker)
	}
	t, err := transport.Dial(addr, tcfg, dirBreakerOutcomeOK)
	if err != nil {
		return nil, fmt.Errorf("dkv: %w", err)
	}
	return &DirClient{t: t}, nil
}

// Close tears down the connection and waits for its demux reader.
func (c *DirClient) Close() error { return c.t.Close() }

// Resilience reports how many round trips needed a retry and how many
// redials the client made over its lifetime.
func (c *DirClient) Resilience() (retries, redials int64) { return c.t.Resilience() }

// roundTrip sends the request encoded in the pooled buffer req (recycled
// here) and returns the body of its StatusOK answer. The pooled buffer behind
// the answer is dropped: control-plane calls are too rare for it to matter.
func (c *DirClient) roundTrip(req *wire.Buffer) (*wire.Reader, error) {
	d, _, err := c.roundTripDeadline(req, time.Time{})
	return d, err
}

// roundTripDeadline is roundTrip bounded by dl as well as the configured
// RPCTimeout (whichever is earlier), for the data-plane calls: it also
// returns the pooled buffer behind the answer, which they hand back with
// wire.PutBuffer once decoded (nothing they return aliases it) — one 4 KB
// allocation per lookup otherwise.
func (c *DirClient) roundTripDeadline(req *wire.Buffer, dl time.Time) (*wire.Reader, *wire.Buffer, error) {
	d, owner, err := c.t.Call(req.Payload(), dl)
	wire.PutBuffer(req)
	return d, owner, err
}

// decodeOwner decodes one lookup answer (see encodeOwner).
func decodeOwner(d *wire.Reader) (NodeID, bool) {
	if d.U8() == 0 {
		return 0, false
	}
	return NodeID(d.I64()), true
}

// Lookup reports which node owns id, if any: a one-id LookupBatch.
func (c *DirClient) Lookup(id dataset.SampleID) (NodeID, bool, error) {
	owners, err := c.LookupBatch([]dataset.SampleID{id})
	if err != nil {
		return 0, false, err
	}
	return owners[0].Node, owners[0].Found, nil
}

// LookupBatch resolves the owners of many ids in ONE wire round trip,
// aligned with ids. This is the amortization primitive of the batched miss
// path and the anti-entropy scrubber: a mini-batch's worth of directory
// questions costs one frame each way instead of len(ids) serial exchanges.
// An empty ids slice short-circuits without touching the network.
func (c *DirClient) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	return c.LookupBatchCtx(ids, obs.TraceCtx{}, time.Time{})
}

// LookupBatchCtx is LookupBatch carrying the caller's trace context —
// addressed to the directory server: the caller passes its own context's
// Next() — and deadline: the remaining budget rides a deadline envelope (the
// directory drops the lookup server-side once it is unservable) and the local
// wait is cut off at the same instant. Zero values send the plain request. So
// a traced cache request's ONE batched ownership lookup appears in the
// cross-node hop chain and inherits what is left of the request's budget.
func (c *DirClient) LookupBatchCtx(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]Owner, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	e := wire.GetBuffer()
	transport.AppendEnvelopes(e, ctx, dl)
	e.U8(opLookupBatch)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
	d, owner, err := c.roundTripDeadline(e, dl)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuffer(owner)
	n := int(d.U32())
	if d.Err != nil {
		return nil, d.Err
	}
	if n != len(ids) {
		return nil, fmt.Errorf("dkv: lookup batch length mismatch: sent %d, got %d", len(ids), n)
	}
	out := make([]Owner, n)
	for i := range out {
		out[i].Node, out[i].Found = decodeOwner(d)
		if d.Err != nil {
			return nil, d.Err
		}
	}
	return out, nil
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
// selects DefaultLeaseTTL). Registration is idempotent — re-running
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
