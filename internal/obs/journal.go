package obs

import (
	"net/http"
	"sync/atomic"
	"time"
)

// Journal is a bounded ring of typed control-plane events: overload state
// transitions, breaker trips and recoveries, membership flips, shard
// hand-offs and epoch boundaries. It answers "what changed around the time
// the metrics moved" — the decision-level complement to the counters and
// histograms, cheap enough to leave armed in production because events are
// rare (state *transitions*, never per-request).
//
// Events are appended to one Ring under one mutex, so append order is
// sequence order. One lock is enough: a training node journals one event
// per epoch boundary, never enough for writers to contend. A nil *Journal
// is a valid no-op sink, mirroring the nil-Histogram contract.
//
// Capacity bounds memory: once the ring wraps, its oldest events are
// overwritten silently and Dropped() reports how many were lost.

// EventKind classifies a journal event.
type EventKind uint8

const (
	// EventGate is an overload admission-gate state transition
	// (Old/New are overload.State values).
	EventGate EventKind = iota
	// EventBreaker is a per-peer circuit-breaker transition
	// (Node is the peer, Old/New are overload.BreakerState values).
	EventBreaker
	// EventMembership is a node liveness flip (Live/Suspect/Dead) or a
	// node-side lease event (reject, re-register).
	EventMembership
	// EventHandoff is a directory shard hand-off sweep (New carries the
	// dropped-entry count, Node the ring epoch).
	EventHandoff
	// EventEpoch is a training-epoch boundary on a cache node.
	EventEpoch
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventGate:
		return "gate"
	case EventBreaker:
		return "breaker"
	case EventMembership:
		return "membership"
	case EventHandoff:
		return "handoff"
	case EventEpoch:
		return "epoch"
	default:
		return "unknown"
	}
}

// Event is one journal entry. Old/New are kind-specific small integers
// (state enums, counts); Detail is a short human label ("normal→shed");
// Trace optionally links the event to a trace chain (0 = none).
type Event struct {
	Seq    uint64    `json:"seq"`
	At     int64     `json:"at_ns"`
	Kind   EventKind `json:"-"`
	KindS  string    `json:"kind"`
	Node   int64     `json:"node"`
	Old    int64     `json:"old"`
	New    int64     `json:"new"`
	Detail string    `json:"detail"`
	Trace  uint64    `json:"trace,omitempty"`
}

// Journal is the bounded event ring. Construct with NewJournal.
type Journal struct {
	ring *Ring[Event]
}

// NewJournal builds a journal retaining capacity events (minimum 1).
func NewJournal(capacity int) *Journal {
	return &Journal{ring: NewRing[Event](capacity)}
}

// Add appends one event. Safe for concurrent use; no-op on a nil journal.
func (j *Journal) Add(kind EventKind, node, old, new int64, detail string) {
	j.AddTraced(kind, node, old, new, detail, 0)
}

// AddTraced is Add carrying a trace-ID exemplar.
func (j *Journal) AddTraced(kind EventKind, node, old, new int64, detail string, trace uint64) {
	if j == nil {
		return
	}
	j.ring.Append(Event{
		At:     time.Now().UnixNano(),
		Kind:   kind,
		Node:   node,
		Old:    old,
		New:    new,
		Detail: detail,
		Trace:  trace,
	})
}

// Total reports how many events were ever appended.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Total()
}

// Snapshot returns the retained events oldest-first. An event's Seq is its
// position in append order, counted from 1; KindS names its Kind.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	events, dropped := j.ring.Snapshot()
	for i := range events {
		events[i].Seq, events[i].KindS = dropped+uint64(i)+1, events[i].Kind.String()
	}
	return events
}

// Dropped reports how many events were overwritten by ring wraparound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Dropped()
}

// journalDoc is the /debug/journal JSON document.
type journalDoc struct {
	Total     uint64           `json:"total"`
	Dropped   uint64           `json:"dropped"`
	Events    []Event          `json:"events"`
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// Handler serves the journal as JSON on /debug/journal. ex may be nil.
func (j *Journal) Handler(ex *Exemplars) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := j.Snapshot()
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, journalDoc{Total: j.Total(), Dropped: j.Dropped(), Events: events, Exemplars: ex.Snapshot()})
	})
}

// Exemplars records, per latency-histogram bucket, the trace ID of the
// most recent traced request that landed there — the bridge from "the p99
// bucket moved" to a concrete stitched trace chain in the trace ring.
// Lock-free: one atomic slot per bucket, last writer wins. A nil
// *Exemplars is a valid no-op sink.
type Exemplars struct {
	slots [NumBuckets]uint64 // atomic: last trace ID per bucket
}

// Record notes that a traced request of duration d carried trace id.
// Zero ids are ignored (untraced requests).
func (e *Exemplars) Record(d time.Duration, trace uint64) {
	if e == nil || trace == 0 {
		return
	}
	atomic.StoreUint64(&e.slots[bucketIndex(d)], trace)
}

// BucketExemplar is one bucket's last-seen trace ID.
type BucketExemplar struct {
	Bucket  int    `json:"bucket"`
	UpperNS int64  `json:"upper_ns"`
	Trace   uint64 `json:"trace"`
}

// Snapshot returns the non-empty bucket exemplars in bucket order.
func (e *Exemplars) Snapshot() []BucketExemplar {
	if e == nil {
		return nil
	}
	var out []BucketExemplar
	for k := 0; k < NumBuckets; k++ {
		if t := atomic.LoadUint64(&e.slots[k]); t != 0 {
			out = append(out, BucketExemplar{Bucket: k, UpperNS: BucketUpper(k), Trace: t})
		}
	}
	return out
}
