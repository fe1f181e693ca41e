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

// ownCall is one caller in the combiner: its entries (one of kind by node
// for each of ids), then one verdict per entry or its frame's error. lead,
// once set, is the frame the caller sends: itself, then the calls queued
// behind it. A queued one-entry call keeps its id and verdict in one and
// oneV.
type ownCall struct {
	kind     byte
	node     NodeID
	ids      []dataset.SampleID
	verdicts []bool
	err      error
	lead     []*ownCall
	wake     chan struct{}
	one      [1]dataset.SampleID
	oneV     [1]bool
}

// combiner holds the ownership writes that arrive while a frame is in flight.
type combiner struct {
	mu      sync.Mutex
	sending bool // an ownership frame is in flight
	queue   []*ownCall
}

// writeOwnership sends one entry of kind by node for each of ids (at most
// MaxOwnBatch) and writes one verdict per entry into verdicts. A call that
// finds no ownership frame in flight sends at once, from its caller's memory;
// one that finds a frame in flight queues a copy, and when that frame's reply
// lands the first queued caller sends everything queued, up to MaxOwnBatch
// entries, as one frame. A failed frame fails each of its calls with its
// error.
func (c *DirClient) writeOwnership(kind byte, ids []dataset.SampleID, node NodeID, verdicts []bool) error {
	q := &c.own
	q.mu.Lock()
	if !q.sending {
		q.sending = true
		q.mu.Unlock()
		solo := ownCall{kind: kind, node: node, ids: ids, verdicts: verdicts}
		return c.sendTurn([]*ownCall{&solo})
	}
	call := &ownCall{kind: kind, node: node, wake: make(chan struct{}, 1)}
	call.ids, call.verdicts = call.one[:], call.oneV[:]
	if len(ids) != 1 {
		call.ids, call.verdicts = make([]dataset.SampleID, len(ids)), make([]bool, len(ids))
	}
	copy(call.ids, ids)
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
	for ; k < len(q.queue) && n+len(q.queue[k].ids) <= MaxOwnBatch; k++ {
		n += len(q.queue[k].ids)
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
		n += len(call.ids)
	}
	e := wire.GetBuffer()
	e.U8(opOwnBatch)
	e.U32(uint32(n))
	for _, call := range frame {
		for _, id := range call.ids {
			e.U8(call.kind)
			e.I64(int64(id))
			e.I64(int64(call.node))
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
	ids, v := [1]dataset.SampleID{id}, [1]bool{}
	err := c.writeOwnership(ownClaim, ids[:], node, v[:])
	return err == nil && v[0], err
}

// Release removes node's ownership of id.
func (c *DirClient) Release(id dataset.SampleID, node NodeID) (bool, error) {
	ids, v := [1]dataset.SampleID{id}, [1]bool{}
	err := c.writeOwnership(ownRelease, ids[:], node, v[:])
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
		n := min(len(ids)-done, MaxOwnBatch)
		if err := c.writeOwnership(kind, ids[done:done+n], node, out[done:done+n]); err != nil {
			return out[:done], err
		}
		done += n
	}
	return out, nil
}
