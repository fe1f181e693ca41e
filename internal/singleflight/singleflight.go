// Package singleflight provides duplicate call suppression for the cache
// miss path: when K goroutines concurrently need the same expensive fetch
// (a backend read or a remote peer read of one sample), exactly one
// executes it and the other K-1 wait for, and share, its result.
//
// This is the standard-library-only equivalent of
// golang.org/x/sync/singleflight, specialized to the needs of the serving
// path: int64-keyed (sample IDs), byte-slice results, and a shared-counter
// hook so coalesced calls are observable in metrics. Results are delivered
// to every waiter by reference — callers must treat the returned bytes as
// immutable.
package singleflight

import (
	"bytes"
	"sync"
)

// Call is one in-flight (or completed) fetch. Leaders obtained through
// Begin resolve it with Group.Finish; every other holder blocks in Wait
// until then.
type Call struct {
	wg     sync.WaitGroup
	val    []byte
	err    error
	joined bool // a second Begin received this call (guarded by Group.mu)
}

// Wait blocks until the call's leader finishes it and returns the shared
// result. The returned bytes are shared by reference across all waiters
// and must be treated as immutable.
func (c *Call) Wait() ([]byte, error) {
	c.wg.Wait()
	return c.val, c.err
}

// Group coalesces concurrent calls with the same key. The zero value is
// ready to use.
type Group struct {
	mu sync.Mutex
	m  map[int64]*Call
}

// Do executes fn, making sure only one execution per key is in flight at a
// time. Concurrent duplicates wait for the original and receive the same
// result; shared reports whether the result came from another caller's
// execution (true for the waiters, false for the executor).
func (g *Group) Do(key int64, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	c, leader := g.Begin(key)
	if !leader {
		val, err = c.Wait()
		return val, err, true
	}
	val, err = fn()
	g.Finish(key, c, val, err)
	return val, err, false
}

// Begin joins or starts the in-flight call for key. leader == true means
// the caller now owns execution and MUST eventually call Finish exactly
// once (even on error paths — an unfinished call deadlocks every waiter);
// leader == false means another goroutine is executing and the caller
// should Wait on the returned call.
//
// Begin/Finish exists for batch orchestrators (the scatter-gather miss
// path): a caller can Begin many keys, resolve all the leader keys with
// one batched RPC, and Finish each, while per-key waiters are still
// satisfied exactly once.
func (g *Group) Begin(key int64) (c *Call, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[int64]*Call)
	}
	if c, ok := g.m[key]; ok {
		c.joined = true
		return c, false
	}
	c = new(Call)
	c.wg.Add(1)
	g.m[key] = c
	return c, true
}

// Finish resolves a call started with Begin: it publishes the result to
// every waiter and retires the key so the next Begin starts fresh. Must be
// called exactly once per leader Begin, with the same key and call.
func (g *Group) Finish(key int64, c *Call, val []byte, err error) {
	g.retire(key, c)
	c.val, c.err = val, err
	c.wg.Done()
}

// FinishBorrowed is Finish for a result in memory the leader will reuse once
// it is done with it itself (a pooled receive buffer): when anyone joined the
// call, every holder — the leader's own Wait included — is given a copy
// instead, so the leader is the only reader val ever has.
func (g *Group) FinishBorrowed(key int64, c *Call, val []byte, err error) {
	if g.retire(key, c) {
		val = bytes.Clone(val)
	}
	c.val, c.err = val, err
	c.wg.Done()
}

// retire removes c's key, so that the next Begin starts fresh, and reports
// whether any other Begin received c — a final answer, since none can now.
func (g *Group) retire(key int64, c *Call) (joined bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.m[key]; ok && cur == c {
		delete(g.m, key)
	}
	return c.joined
}

// Inflight reports the number of keys currently executing (diagnostics).
func (g *Group) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
