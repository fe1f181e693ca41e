package dkv

import (
	"fmt"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/wire"
)

// Ownership writes: a node claims every sample it admits and releases every
// one it evicts (§III-E). DirClient sends them through one combiner, below the
// Service contract, as opOwnBatch frames — u32 n, then n entries of u8 kind |
// i64 id | i64 node, answered by u32 n and one u8 verdict per entry. DESIGN.md
// ("Ownership writes") has the rule and why it sits here.

// MaxOwnBatch caps one frame: the client packs no more entries, the server
// refuses more.
const MaxOwnBatch = 4096

// Entry kinds of an opOwnBatch frame.
const (
	ownClaim   = 1
	ownRelease = 2
)

type ownOp struct {
	kind byte
	id   dataset.SampleID
	node NodeID
}

// decodeOwnBatch decodes a whole frame before anything is applied, so a
// malformed frame changes nothing.
func decodeOwnBatch(d *wire.Reader) ([]ownOp, error) {
	n := int(d.U32())
	if n > MaxOwnBatch {
		return nil, fmt.Errorf("dkv: unreasonable batch size %d", n)
	}
	ops := make([]ownOp, n)
	for i := range ops {
		ops[i] = ownOp{kind: d.U8(), id: dataset.SampleID(d.I64()), node: NodeID(d.I64())}
		if k := ops[i].kind; d.Err == nil && k != ownClaim && k != ownRelease {
			return nil, fmt.Errorf("dkv: unknown ownership entry op %d", k)
		}
	}
	return ops, d.Err
}

// ownCall is one caller in the combiner: its entries, then one verdict per
// entry or its frame's error. lead, once set, is the frame the caller sends:
// itself, then the calls queued behind it. A queued one-entry call keeps its
// entry and verdict in one and oneV.
type ownCall struct {
	ops      []ownOp
	verdicts []bool
	err      error
	lead     []*ownCall
	wake     chan struct{}
	one      [1]ownOp
	oneV     [1]bool
}

// combiner holds the ownership writes that arrive while a frame is in flight.
type combiner struct {
	mu      sync.Mutex
	sending bool // an ownership frame is in flight
	queue   []*ownCall
}

// writeOwnership sends ops (at most MaxOwnBatch) and writes one verdict per op
// into verdicts. A call that finds no ownership frame in flight sends at once,
// from its caller's memory; one that finds a frame in flight queues a copy,
// and when that frame's reply lands the first queued caller sends everything
// queued, up to MaxOwnBatch entries, as one frame. A failed frame fails each
// of its calls with its error.
func (c *DirClient) writeOwnership(ops []ownOp, verdicts []bool) error {
	q := &c.own
	q.mu.Lock()
	if !q.sending {
		q.sending = true
		q.mu.Unlock()
		solo := ownCall{ops: ops, verdicts: verdicts}
		return c.sendTurn([]*ownCall{&solo})
	}
	call := &ownCall{wake: make(chan struct{}, 1)}
	call.ops, call.verdicts = call.one[:], call.oneV[:]
	if len(ops) != 1 {
		call.ops, call.verdicts = make([]ownOp, len(ops)), make([]bool, len(ops))
	}
	copy(call.ops, ops)
	q.queue = append(q.queue, call)
	q.mu.Unlock()
	if <-call.wake; call.lead != nil {
		_ = c.sendTurn(call.lead) // the frame's error is call.err too
	}
	copy(verdicts, call.verdicts)
	return call.err
}

// sendTurn sends frame, then passes the turn on before the frame's queued
// callers wake, whatever the frame's outcome: a queued caller stays parked
// until someone does. It returns the frame's error.
func (c *DirClient) sendTurn(frame []*ownCall) error {
	err := c.sendOwnership(frame)
	if next := c.own.next(); len(next) > 0 {
		next[0].lead = next
		next[0].wake <- struct{}{}
	}
	for _, o := range frame[1:] {
		o.wake <- struct{}{}
	}
	return err
}

// next takes the next frame's calls off the queue, or ends the sending turn
// when none is queued.
func (q *combiner) next() []*ownCall {
	q.mu.Lock()
	defer q.mu.Unlock()
	n, k := 0, 0
	for ; k < len(q.queue) && n+len(q.queue[k].ops) <= MaxOwnBatch; k++ {
		n += len(q.queue[k].ops)
	}
	frame := q.queue[:k:k]
	q.queue, q.sending = q.queue[k:], k > 0
	return frame
}

// sendOwnership makes frame's one round trip and hands each call its share
// of the verdicts, or the error, which it returns.
func (c *DirClient) sendOwnership(frame []*ownCall) error {
	n := 0
	for _, call := range frame {
		n += len(call.ops)
	}
	e := wire.GetBuffer()
	e.U8(opOwnBatch)
	e.U32(uint32(n))
	for _, call := range frame {
		for _, o := range call.ops {
			e.U8(o.kind)
			e.I64(int64(o.id))
			e.I64(int64(o.node))
		}
	}
	d, owner, err := c.roundTripDeadline(e, time.Time{})
	if err == nil {
		err = decodeVerdicts(d, n, frame)
		wire.PutBuffer(owner)
	}
	for _, call := range frame {
		call.err = err
	}
	return err
}

// decodeVerdicts hands each call of frame its share of the n verdicts.
func decodeVerdicts(d *wire.Reader, n int, frame []*ownCall) error {
	if got := int(d.U32()); d.Err == nil && got != n {
		return fmt.Errorf("dkv: ownership batch length mismatch: sent %d, got %d", n, got)
	}
	for _, call := range frame {
		for i := range call.verdicts {
			call.verdicts[i] = d.U8() == 1
		}
	}
	return d.Err
}

// Claim registers node as the owner of id (first claim wins).
func (c *DirClient) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	var v [1]bool
	err := c.writeOwnership([]ownOp{{ownClaim, id, node}}, v[:])
	return err == nil && v[0], err
}

// Release removes node's ownership of id.
func (c *DirClient) Release(id dataset.SampleID, node NodeID) (bool, error) {
	var v [1]bool
	err := c.writeOwnership([]ownOp{{ownRelease, id, node}}, v[:])
	return err == nil && v[0], err
}

// WriteBatch is the BatchService half of the client: the slice goes through
// the combiner in writes of at most MaxOwnBatch ids.
func (c *DirClient) WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	kind, out := byte(ownClaim), make([]bool, len(ids))
	if release {
		kind = ownRelease
	}
	for done := 0; done < len(ids); {
		ops := make([]ownOp, min(len(ids)-done, MaxOwnBatch))
		for i := range ops {
			ops[i] = ownOp{kind, ids[done+i], node}
		}
		if err := c.writeOwnership(ops, out[done:done+len(ops)]); err != nil {
			return out[:done], err
		}
		done += len(ops)
	}
	return out, nil
}
