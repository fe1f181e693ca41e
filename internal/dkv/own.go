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
// itself, then the calls queued behind it.
type ownCall struct {
	ops      []ownOp
	verdicts []bool
	err      error
	lead     []*ownCall
	wake     chan struct{}
}

// combiner holds the ownership writes that arrive while a frame is in flight.
type combiner struct {
	mu      sync.Mutex
	sending bool // an ownership frame is in flight
	queue   []*ownCall
}

// writeOwnership sends ops (at most MaxOwnBatch) and returns one verdict per
// op. A call that finds no ownership frame in flight sends at once; one that
// finds a frame in flight queues, and when that frame's reply lands the first
// queued caller sends everything queued, up to MaxOwnBatch entries, as one
// frame. A failed frame fails each of its calls with its error.
func (c *DirClient) writeOwnership(ops []ownOp) ([]bool, error) {
	call, q := &ownCall{ops: ops}, &c.own
	q.mu.Lock()
	if q.sending {
		call.wake = make(chan struct{}, 1)
		q.queue = append(q.queue, call)
		q.mu.Unlock()
		<-call.wake
	} else {
		q.sending, call.lead = true, []*ownCall{call}
		q.mu.Unlock()
	}
	if frame := call.lead; frame != nil {
		c.sendOwnership(frame)
		// The turn passes on before the frame's callers wake, whatever the
		// frame's outcome: a queued caller stays parked until someone does.
		if next := q.next(); len(next) > 0 {
			next[0].lead = next
			next[0].wake <- struct{}{}
		}
		for _, o := range frame[1:] {
			o.wake <- struct{}{}
		}
	}
	return call.verdicts, call.err
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
// of the verdicts, or the error.
func (c *DirClient) sendOwnership(frame []*ownCall) {
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
	var verdicts []bool
	if err == nil {
		verdicts, err = decodeVerdicts(d, n)
		wire.PutBuffer(owner)
	}
	for _, call := range frame {
		if k := len(call.ops); err == nil {
			call.verdicts, verdicts = verdicts[:k:k], verdicts[k:]
		}
		call.err = err
	}
}

func decodeVerdicts(d *wire.Reader, n int) ([]bool, error) {
	if got := int(d.U32()); d.Err == nil && got != n {
		return nil, fmt.Errorf("dkv: ownership batch length mismatch: sent %d, got %d", n, got)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.U8() == 1
	}
	return out, d.Err
}

// Claim registers node as the owner of id (first claim wins).
func (c *DirClient) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	v, err := c.writeOwnership([]ownOp{{ownClaim, id, node}})
	return err == nil && v[0], err
}

// Release removes node's ownership of id.
func (c *DirClient) Release(id dataset.SampleID, node NodeID) (bool, error) {
	v, err := c.writeOwnership([]ownOp{{ownRelease, id, node}})
	return err == nil && v[0], err
}

// WriteBatch is the BatchService half of the client: the slice goes through
// the combiner in writes of at most MaxOwnBatch ids.
func (c *DirClient) WriteBatch(release bool, ids []dataset.SampleID, node NodeID) ([]bool, error) {
	kind, out := byte(ownClaim), make([]bool, 0, len(ids))
	if release {
		kind = ownRelease
	}
	for len(ids) > 0 {
		ops := make([]ownOp, min(len(ids), MaxOwnBatch))
		for i := range ops {
			ops[i] = ownOp{kind, ids[i], node}
		}
		ids = ids[len(ops):]
		v, err := c.writeOwnership(ops)
		if err != nil {
			return out, err
		}
		out = append(out, v...)
	}
	return out, nil
}
