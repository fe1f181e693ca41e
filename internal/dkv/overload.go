package dkv

// This file is what is directory-specific about overload control; the
// machinery — the admission site, the deadline envelope, the per-call timer
// and the breaker gate — is internal/transport's. The directory decides
// which of its operations the admission gate covers, and how a round-trip
// error reads as directory health.

import (
	"errors"

	"icache/internal/overload"
	"icache/internal/transport"
)

// SetAdmission installs an admission gate on the directory server's data
// operations (see dirRoute). Must be called before Serve. nil disables
// gating.
func (s *DirServer) SetAdmission(g *overload.Gate) { s.t.Gate = g }

// OverloadCounters reports how many requests the gate shed and how many were
// dropped because their deadline budget was spent on arrival.
func (s *DirServer) OverloadCounters() (shed, expired int64) { return s.t.OverloadCounters() }

// dirRoute is the directory's half of the transport's handler contract.
// Every directory op is a map access under one short lock hold — none blocks
// on I/O — so all are answered inline from the connection's read loop: a
// pipelined client's lookups are served back to back with no goroutine and
// no copy per call. The admission gate covers the DATA operations only:
// liveness traffic (register, heartbeat) and introspection are NEVER
// gated — shedding heartbeats during overload would turn a busy
// directory into a false mass-death event, which is strictly worse than the
// load it sheds.
func dirRoute(op byte) transport.Route {
	switch op {
	case opLookupBatch, opOwnBatch:
		return transport.Inline | transport.Gated
	}
	return transport.Inline
}

// dirBreakerOutcomeOK maps a round-trip error to directory health: any
// decoded response — an application error, a shed, an expiry drop — proves
// the server is alive; only transport-level failures and local timeouts
// count against the breaker. Unlike a cache peer, a directory replica that
// sheds is not routed around: no other replica holds its shards' entries, and
// opening the circuit on it would only add an outage to an overload.
func dirBreakerOutcomeOK(err error) bool {
	var se *transport.ServerError
	var ra *overload.RetryAfterError
	return errors.As(err, &se) || errors.As(err, &ra) || errors.Is(err, overload.ErrExpired)
}
