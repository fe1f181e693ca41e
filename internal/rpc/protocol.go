// Package rpc implements the client/server wire protocol between the
// deep-learning framework and the iCache server. The paper uses gRPC; this
// reproduction uses an equivalent length-prefixed binary protocol over TCP
// built only on the standard library, with the same two interfaces the
// paper names — fetching batches (rpc_loader) and pushing importance values
// (update_ipersample) — plus epoch-boundary and stats calls.
//
// Frame layout: a 4-byte big-endian payload length, then the payload. The
// payload's first byte is the opcode; the rest is the opcode-specific body.
// All integers are big-endian; floats are IEEE-754 bits. Connections,
// envelopes, status codes, retry and admission belong to internal/transport;
// this package is the cache protocol's opcodes, encoders and request handler
// on top of it.
package rpc

import (
	"fmt"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/transport"
	"icache/internal/wire"
)

// Opcodes. 6 is reserved (the retired per-sample opPeerGet, answered as an
// unknown opcode); 5, 7, 9 and 10 are the transport's (ping and the trace,
// mux and deadline envelopes).
const (
	opGetBatch         = 1 // the paper's rpc_loader
	opUpdateImportance = 2 // the paper's update_ipersample
	opStats            = 3
	opBeginEpoch       = 4
	// opPeerGetBatch fetches many resident samples from a peer cache in ONE
	// round trip: the one peer read.
	// Request: u8 opcode | u32 n | n × i64 id. Response: statusOK | u32 n |
	// n × (u8 found | bytes payload-if-found), aligned with the request.
	opPeerGetBatch = 8
	// opEpochPlan is the clairvoyant epoch boundary: opBeginEpoch plus the
	// epoch's known access sequence, pushed in first-access order by a
	// client whose IIS sampler has already drawn the schedule. Request:
	// u8 opcode | u32 epoch | u32 n | n × i64 id. The server performs the
	// normal epoch-boundary duties and queues the sequence's missing H-side
	// as the epoch's prefetch plan before answering (see plan.go); the plan
	// is the only thing a server prefetches.
	opEpochPlan = 11
	// opPlanPreplace routes plan entries to their future owner: the sending
	// node decided (by rendezvous over the membership) that the receiver
	// should hold these samples, and the receiver folds them into its own
	// plan, admitting and fetching them through its own prefetch queue.
	// Request: u8 opcode | u32 n | n × i64 id. Response: statusOK |
	// u32 accepted.
	opPlanPreplace = 12
)

// appendIDList appends the id-list request body four opcodes share: the
// count, then the ids (decodeGetBatchRequestInto is its decoder and size
// guard).
func appendIDList(e *wire.Buffer, ids []dataset.SampleID) {
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
	}
}

func decodeGetBatchRequest(d *wire.Reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequestInto(d, nil)
}

// decodeGetBatchRequestInto appends the decoded ids to dst (reusing its
// capacity) — the vectored serving path passes a pooled scratch slice so a
// request decode allocates nothing.
func decodeGetBatchRequestInto(d *wire.Reader, dst []dataset.SampleID) ([]dataset.SampleID, error) {
	n := int(d.U32())
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("rpc: unreasonable batch size %d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, dataset.SampleID(d.I64()))
	}
	return dst, d.Err
}

// encodePeerGetBatchRequest/decode pair. The request body is identical in
// shape to opGetBatch (u32 count + ids) and shares its size guard.
func encodePeerGetBatchRequest(ids []dataset.SampleID) []byte {
	e := wire.Buffer{B: []byte{opPeerGetBatch}}
	appendIDList(&e, ids)
	return e.B
}

// decodePeerGetBatchResponse decodes the per-id results of an
// opPeerGetBatch response, aligned with the n ids the caller sent: out[i]
// is the payload when the peer had ids[i] resident, nil when it did not.
func decodePeerGetBatchResponse(d *wire.Reader, want int) ([][]byte, error) {
	n := int(d.U32())
	if err := d.Err; err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("rpc: peer batch length mismatch: sent %d, got %d", want, n)
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if d.U8() == 1 {
			out[i] = d.BytesField()
		}
		if err := d.Err; err != nil {
			return nil, err
		}
	}
	return out, d.Err
}

// encodeEpochPlanRequest/decode pair: the epoch number plus the epoch's
// access sequence in first-access order. The sequence reuses opGetBatch's
// id-list layout and size guard (an IIS schedule is at most one pass over
// the dataset, well under the guard for every spec this repo ships).
func encodeEpochPlanRequest(epoch int, ids []dataset.SampleID) []byte {
	e := wire.Buffer{B: []byte{opEpochPlan}}
	e.U32(uint32(epoch))
	appendIDList(&e, ids)
	return e.B
}

func decodeEpochPlanRequest(d *wire.Reader) (epoch uint32, ids []dataset.SampleID, err error) {
	epoch = d.U32()
	ids, err = decodeGetBatchRequest(d)
	return epoch, ids, err
}

// encodePlanPreplaceRequest/decode pair: the id-list layout again.
func encodePlanPreplaceRequest(ids []dataset.SampleID) []byte {
	e := wire.Buffer{B: []byte{opPlanPreplace}}
	appendIDList(&e, ids)
	return e.B
}

func decodePlanPreplaceRequest(d *wire.Reader) ([]dataset.SampleID, error) {
	return decodeGetBatchRequest(d)
}

// Sample is one delivered sample on the wire: the ID actually served (which
// may differ from the requested ID under substitution) and its payload.
type Sample struct {
	ID      dataset.SampleID
	Payload []byte
}

// encodeGetBatchResponse is the flat reference encoding of a GetBatch
// response. The server frames responses as a wire.Vec (serve_vec.go) and
// never calls this; tests and FuzzServerDispatch hold the served bytes
// against it.
func encodeGetBatchResponse(samples []Sample) []byte {
	var e wire.Buffer
	e.U8(transport.StatusOK)
	e.U32(uint32(len(samples)))
	for _, s := range samples {
		e.I64(int64(s.ID))
		e.Bytes(s.Payload)
	}
	return e.B
}

// decodeGetBatchResponseInto appends the decoded samples to dst (reusing
// its capacity) — the borrowed-read client path passes a pooled scratch
// slice so a response decode allocates nothing. Payloads alias the frame.
func decodeGetBatchResponseInto(d *wire.Reader, dst []Sample) ([]Sample, error) {
	n := int(d.U32())
	if dst == nil {
		dst = make([]Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		id := dataset.SampleID(d.I64())
		payload := d.BytesField()
		if d.Err != nil {
			return nil, d.Err
		}
		dst = append(dst, Sample{ID: id, Payload: payload})
	}
	return dst, d.Err
}

func encodeUpdateImportanceRequest(items []sampling.Item) []byte {
	var e wire.Buffer
	e.U8(opUpdateImportance)
	e.U32(uint32(len(items)))
	for _, it := range items {
		e.I64(int64(it.ID))
		e.F64(it.IV)
	}
	return e.B
}

func decodeUpdateImportanceRequest(d *wire.Reader) ([]sampling.Item, error) {
	n := int(d.U32())
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("rpc: unreasonable H-list size %d", n)
	}
	items := make([]sampling.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, sampling.Item{ID: dataset.SampleID(d.I64()), IV: d.F64()})
	}
	return items, d.Err
}

// Stats is the server-side counter snapshot exposed over the wire.
type Stats struct {
	Hits          int64
	Misses        int64
	Substitutions int64
	HCacheLen     int64
	LCacheLen     int64
	Packages      int64
	// DemandFetches counts backend reads issued on the demand path (cold
	// misses). Last field of the wire response; the decoder accepts a frame
	// that ends before it.
	DemandFetches int64
}

// encodeStatsResponseInto appends the body of the opStats answer.
func encodeStatsResponseInto(e *wire.Buffer, s Stats) {
	e.I64(s.Hits)
	e.I64(s.Misses)
	e.I64(s.Substitutions)
	e.I64(s.HCacheLen)
	e.I64(s.LCacheLen)
	e.I64(s.Packages)
	e.I64(s.DemandFetches)
}

func decodeStatsResponse(d *wire.Reader) (Stats, error) {
	s := Stats{
		Hits:          d.I64(),
		Misses:        d.I64(),
		Substitutions: d.I64(),
		HCacheLen:     d.I64(),
		LCacheLen:     d.I64(),
		Packages:      d.I64(),
	}
	// DemandFetches trails the six counters; a frame that ends here is
	// accepted (input validation, not version negotiation).
	if err := d.Err; err != nil {
		return s, err
	}
	if len(d.B[d.Off:]) >= 8 {
		s.DemandFetches = d.I64()
	}
	return s, d.Err
}
