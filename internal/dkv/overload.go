package dkv

// This file is the directory service's overload-control wiring, mirroring
// the rpc layer's: an optional admission gate on the DATA operations
// (lookup/claim/release/batch lookup), a deadline envelope so a cache
// node's remaining request budget propagates into its directory lookups,
// and a client-side circuit breaker + per-RPC deadline so a hung or dead
// directory costs a bounded stall before the caller degrades to
// local-only operation.
//
// Liveness traffic (register, heartbeat) and ring gossip are deliberately
// NEVER gated: shedding heartbeats during overload would turn a busy
// directory into a false mass-death event, which is strictly worse than
// the load it sheds.

import (
	"errors"
	"fmt"
	"net"
	"time"

	"icache/internal/dataset"
	"icache/internal/overload"
	"icache/internal/wire"
)

// opDeadline wraps a directory request in a deadline envelope:
//
//	u8(opDeadline) | i64(remaining budget, nanos) | inner request bytes
//
// The budget is the REMAINING time the sender had when it encoded the
// frame (no cross-node clock agreement needed). Nested envelopes are
// rejected. It composes with the trace envelope in either order.
const opDeadline = 14

// Overload response statuses (extending statusOK/statusErr in net.go).
const (
	// statusRetryAfter rejects a shed request; the body carries an i64
	// backoff hint in nanoseconds.
	statusRetryAfter = 2
	// statusExpired drops a request whose deadline budget was already
	// spent on arrival. Empty body.
	statusExpired = 3
)

// ErrDirExpired wraps overload.ErrExpired for directory round trips the
// server dropped as expired.
var errDirExpired = fmt.Errorf("dkv: server dropped expired request: %w", overload.ErrExpired)

// dirDataOp reports whether op is a data-plane operation the admission
// gate covers. Liveness (register/heartbeat), introspection, and ring
// gossip always pass.
func dirDataOp(op byte) bool {
	switch op {
	case opLookup, opLookupBatch, opClaim, opRelease:
		return true
	}
	return false
}

// SetAdmission installs an admission gate on the directory server's data
// operations. Must be called before Serve. nil disables gating.
func (s *DirServer) SetAdmission(g *overload.Gate) { s.gate = g }

// Admission reports the installed gate (nil when disabled).
func (s *DirServer) Admission() *overload.Gate { return s.gate }

// SetRPCTimeout bounds every directory round trip (applied per attempt as
// a connection deadline). <= 0 leaves round trips unbounded, the historic
// behavior. Call before the client is shared across goroutines.
func (c *DirClient) SetRPCTimeout(d time.Duration) {
	c.mu.Lock()
	c.rpcTimeout = d
	c.mu.Unlock()
}

// SetBreaker installs a circuit breaker on the directory client: after
// cfg.Threshold consecutive transport failures the client fails fast
// (overload.ErrBreakerOpen) without touching the network until a
// half-open probe succeeds. Call before the client is shared across
// goroutines. A nil receiver-side breaker (never calling SetBreaker)
// keeps the historic always-try behavior.
func (c *DirClient) SetBreaker(cfg overload.BreakerConfig) {
	c.mu.Lock()
	c.breaker = overload.NewBreaker(cfg)
	c.mu.Unlock()
}

// BreakerStats snapshots the directory client's breaker counters (zero
// value when no breaker is installed).
func (c *DirClient) BreakerStats() overload.BreakerStats {
	c.mu.Lock()
	b := c.breaker
	c.mu.Unlock()
	if b == nil {
		return overload.BreakerStats{}
	}
	return b.Stats()
}

// LookupBatchDeadline is LookupBatch bounded by the caller's deadline: the
// remaining budget rides a deadline envelope (the directory drops the
// lookup server-side once it is unservable) and the local wait is cut off
// at the same instant. A zero deadline is plain LookupBatch. It implements
// the optional interface the rpc layer probes for when forwarding
// deadline-bounded batched directory lookups.
func (c *DirClient) LookupBatchDeadline(ids []dataset.SampleID, dl time.Time) ([]Owner, error) {
	if dl.IsZero() {
		return c.LookupBatch(ids)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	budget := time.Until(dl)
	if budget <= 0 {
		return nil, errDirExpired
	}
	e := wire.GetBuffer()
	e.U8(opDeadline)
	e.I64(int64(budget))
	e.U8(opLookupBatch)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
	d, err := c.roundTripDeadline(e, dl)
	if err != nil {
		return nil, err
	}
	return decodeLookupBatchResponse(d, len(ids))
}

// dirBreakerOutcomeOK maps one round-trip result to directory health: any
// decoded response — including an application error, a shed, or an expiry
// drop — proves the server is alive; only transport-level failures and
// local timeouts count against the breaker. (ErrBreakerOpen never reaches
// here: a fast-fail skips the round trip and its Report.)
func dirBreakerOutcomeOK(err error) bool {
	if err == nil {
		return true
	}
	var se *ServerError
	if errors.As(err, &se) {
		return true
	}
	var ra *overload.RetryAfterError
	return errors.As(err, &ra) || errors.Is(err, overload.ErrExpired)
}

// isTimeoutErr reports whether err carries a net.Error timeout anywhere in
// its chain (a SetDeadline expiry on the directory connection).
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
