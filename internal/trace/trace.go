// Package trace provides lightweight request-event recording for the cache
// server: a fixed-capacity ring buffer of typed events that an operator can
// dump as CSV to understand what the cache did and why — which requests
// hit, missed, were substituted, which samples the loader shipped, when the
// heap was refreshed. Recording is allocation-free per event and safe for
// concurrent use; a nil *Recorder is a valid no-op sink, so call sites need
// no conditionals.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	// KindHit is a request served from the cache (exact).
	KindHit Kind = iota
	// KindMiss is a request that went to backend storage.
	KindMiss
	// KindSubstitute is a request served by a different cached sample.
	KindSubstitute
	// KindAdmit is a sample entering a cache region.
	KindAdmit
	// KindEvict is a sample leaving a cache region.
	KindEvict
	// KindPackage is a loader package arrival.
	KindPackage
	// KindRefresh is an H-list installation / heap refresh.
	KindRefresh
	// KindEpoch is an epoch boundary.
	KindEpoch

	// Span-style kinds (PR 4): events carrying a cross-node trace context
	// (trace ID + hop) and a measured duration, recorded by the network
	// layers rather than the cache policy. Together they reconstruct one
	// request's hop chain across client → cache node → peer/directory →
	// backend (see spans.go and cmd/icache-trace).

	// KindRPCSend is an outbound RPC measured at the sender: a client's
	// GetBatch round trip (hop 0) or a cache node's peer/directory call
	// (hop = the sender's hop). Dur is the full round-trip time.
	KindRPCSend
	// KindRPCRecv is an inbound RPC measured at the receiver: the time the
	// receiving node spent serving the request. Hop is the receiver's
	// position in the chain.
	KindRPCRecv
	// KindBackend is a backend-storage fetch performed while serving a
	// traced request; Dur is the storage service time.
	KindBackend
)

// kindNames backs Kind.String and CSV parsing; order must match the
// constants above.
var kindNames = [...]string{
	"hit", "miss", "substitute", "admit", "evict", "package", "refresh",
	"epoch", "rpc_send", "rpc_recv", "backend",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsSpan reports whether k is a span-style kind (carries trace context and
// a duration).
func (k Kind) IsSpan() bool {
	return k == KindRPCSend || k == KindRPCRecv || k == KindBackend
}

// Event is one recorded cache event. Arg's meaning depends on Kind: the
// substitute's ID for KindSubstitute, the sample count for KindPackage, the
// H-list length for KindRefresh, the epoch number for KindEpoch, the batch
// size for KindRPCRecv.
//
// Span-style kinds additionally carry the cross-node trace context
// (TraceID + Hop) and the measured Dur; those fields are zero on classic
// cache events.
type Event struct {
	At   time.Duration // virtual or wall offset, as the recorder's owner defines
	Kind Kind
	ID   dataset.SampleID
	Arg  int64

	// TraceID and Hop identify the request chain a span event belongs to
	// (0 = untraced). Dur is the span's measured duration.
	TraceID uint64
	Hop     uint8
	Dur     time.Duration
}

// Recorder is a concurrency-safe ring of events (an obs.Ring). The zero
// value is unusable; make one with NewRecorder. A nil Recorder ignores
// Record calls and dumps nothing, so owners can leave tracing off without
// branching.
type Recorder struct {
	ring *obs.Ring[Event]
}

// NewRecorder allocates a ring holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: capacity %d", capacity))
	}
	return &Recorder{ring: obs.NewRing[Event](capacity)}
}

// Record appends an event, overwriting the oldest once full. Safe on nil.
func (r *Recorder) Record(at time.Duration, kind Kind, id dataset.SampleID, arg int64) {
	r.RecordSpan(at, kind, id, arg, 0, 0, 0)
}

// RecordSpan appends a span-style event carrying a trace context and a
// measured duration. Safe on nil.
func (r *Recorder) RecordSpan(at time.Duration, kind Kind, id dataset.SampleID, arg int64, traceID uint64, hop uint8, dur time.Duration) {
	if r != nil {
		r.ring.Append(Event{At: at, Kind: kind, ID: id, Arg: arg, TraceID: traceID, Hop: hop, Dur: dur})
	}
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.ring.Len()
}

// Total reports how many events were ever recorded (including overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Total()
}

// Dropped reports how many events ring wraparound has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Snapshot returns the retained events oldest-first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	events, _ := r.ring.Snapshot()
	return events
}

// Counts aggregates retained events by kind.
func (r *Recorder) Counts() map[Kind]int { return Analyze(r.Snapshot(), 0).ByKind }

// csvHeader names the dump's columns; csvRow formats one event under it.
var csvHeader = []string{"at_ns", "kind", "id", "arg", "trace", "hop", "dur_ns"}

// csvRow formats e. The trace column is the trace ID in hex (0 = untraced).
func csvRow(e Event) []string {
	return []string{
		strconv.FormatInt(int64(e.At), 10),
		e.Kind.String(),
		strconv.FormatInt(int64(e.ID), 10),
		strconv.FormatInt(e.Arg, 10),
		strconv.FormatUint(e.TraceID, 16),
		strconv.FormatUint(uint64(e.Hop), 10),
		strconv.FormatInt(int64(e.Dur), 10),
	}
}

// WriteCSV dumps the retained events oldest-first as CSV with the columns
// at_ns, kind, id, arg, trace, hop, dur_ns: WriteCSVLimited with no budget.
// The first four columns are the pre-span format; ReadCSV accepts both
// widths, so old dumps stay readable.
func (r *Recorder) WriteCSV(w io.Writer) error {
	_, err := r.WriteCSVLimited(w, 0)
	return err
}

// WriteCSVLimited is WriteCSV under a byte budget: when the full dump
// would exceed maxBytes, the OLDEST rows are cut so the newest suffix
// (plus the header) fits — the end of a soak run is what a post-mortem
// reads first. maxBytes <= 0 means unlimited. It returns how many retained
// events were cut; ring-overwrite drops are reported by Dropped() as usual.
func (r *Recorder) WriteCSVLimited(w io.Writer, maxBytes int64) (cut int, err error) {
	events := r.Snapshot()
	if maxBytes > 0 {
		// Budget accounting mirrors encoding/csv's default output: fields
		// joined by commas plus a trailing newline. None of our fields need
		// quoting, so the estimate is exact.
		size := func(rec []string) int64 {
			n := int64(len(rec)) // separators + newline
			for _, f := range rec {
				n += int64(len(f))
			}
			return n
		}
		// Walk from the newest row backwards, keeping what fits.
		budget := maxBytes - size(csvHeader)
		cut = len(events)
		for ; cut > 0; cut-- {
			n := size(csvRow(events[cut-1]))
			if n > budget {
				break
			}
			budget -= n
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return cut, err
	}
	for _, e := range events[cut:] {
		if err := cw.Write(csvRow(e)); err != nil {
			return cut, err
		}
	}
	cw.Flush()
	return cut, cw.Error()
}
