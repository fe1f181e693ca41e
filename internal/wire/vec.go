package wire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Vec builds one length-prefixed frame as a vector of segments: small
// header runs encoded into an internal scratch buffer, interleaved with
// externally owned payload slices that are referenced, never copied. The
// whole frame is then written with one WriteTo call — net.Buffers on a TCP
// connection turns that into a single writev(2), so a cached payload
// travels from the payload store to the socket with zero copies in user
// space.
//
// Usage:
//
//	v.Reset()
//	v.U8(statusOK); v.U32(n)
//	for each sample { v.I64(id); v.U32(len(p)); v.Payload(p) }
//	v.WriteTo(conn)
//
// The caller keeps every Payload slice alive and unchanged until WriteTo
// returns: the serving path holds the payload store's slices, which are
// immutable and never recycled, and drops them only after the write completes.
//
// A Vec is not safe for concurrent use. The zero value is ready after
// Reset.
type Vec struct {
	// scratch holds the 4-byte length prefix and every header run. Header
	// segments store offsets into scratch (not slices) because appends may
	// reallocate the backing array.
	scratch []byte
	segs    []vecSeg
	bufs    net.Buffers // reused WriteTo assembly
	// wview is the consumable slice header handed to net.Buffers.WriteTo
	// (which advances it and zeroes written elements). It shares bufs's
	// backing array; keeping it as a field lets WriteTo call the
	// pointer-receiver method without a heap-escaping local copy.
	wview net.Buffers
}

// vecSeg is one frame segment: an external payload slice (ext != nil), or
// the scratch range [start, end) when ext is nil.
type vecSeg struct {
	ext        []byte
	start, end int
}

// Reset clears the vector and reserves the 4-byte length prefix.
func (v *Vec) Reset() {
	v.scratch = append(v.scratch[:0], 0, 0, 0, 0)
	v.segs = v.segs[:0]
	v.segs = append(v.segs, vecSeg{start: 0, end: 4})
}

// header returns the open scratch segment, starting a new one if the last
// appended segment was an external payload.
func (v *Vec) header() *vecSeg {
	if len(v.segs) == 0 {
		v.Reset()
	}
	if last := &v.segs[len(v.segs)-1]; last.ext == nil {
		return last
	}
	v.segs = append(v.segs, vecSeg{start: len(v.scratch), end: len(v.scratch)})
	return &v.segs[len(v.segs)-1]
}

// U8 appends one header byte.
func (v *Vec) U8(b byte) {
	s := v.header()
	v.scratch = append(v.scratch, b)
	s.end = len(v.scratch)
}

// U32 appends a big-endian uint32 header field.
func (v *Vec) U32(x uint32) {
	s := v.header()
	v.scratch = append(v.scratch, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	s.end = len(v.scratch)
}

// I64 appends a big-endian int64 header field.
func (v *Vec) I64(x int64) {
	s := v.header()
	u := uint64(x)
	v.scratch = append(v.scratch, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	s.end = len(v.scratch)
}

// Str appends a length-prefixed string header field (error responses).
func (v *Vec) Str(s string) {
	v.U32(uint32(len(s)))
	seg := v.header()
	v.scratch = append(v.scratch, s...)
	seg.end = len(v.scratch)
}

// Payload appends an externally owned payload slice by reference. The
// caller must keep p immutable and alive until WriteTo returns. Zero-length
// payloads add no segment (their length was already framed by the caller).
func (v *Vec) Payload(p []byte) {
	if len(p) == 0 {
		return
	}
	v.segs = append(v.segs, vecSeg{ext: p})
}

// Len reports the frame payload length (excluding the 4-byte prefix).
func (v *Vec) Len() int {
	n := 0
	for _, s := range v.segs {
		if s.ext != nil {
			n += len(s.ext)
		} else {
			n += s.end - s.start
		}
	}
	return n - 4
}

// WriteTo patches the length prefix and writes the whole frame with one
// vectored write. On a *net.TCPConn the segments go out as a single
// writev(2); any other writer receives the segments sequentially
// (net.Buffers falls back to per-buffer Write calls). Returns the total
// bytes written. The Vec remains assembled after WriteTo — call Reset to
// reuse it.
func (v *Vec) WriteTo(w io.Writer) (int64, error) {
	n := v.Len()
	if n < 0 {
		return 0, fmt.Errorf("wire: vectored frame written before Reset")
	}
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	v.scratch[0] = byte(n >> 24)
	v.scratch[1] = byte(n >> 16)
	v.scratch[2] = byte(n >> 8)
	v.scratch[3] = byte(n)
	// Resolve scratch ranges at write time: appends may have reallocated
	// the backing array since the segment was opened.
	v.bufs = v.bufs[:0]
	for _, s := range v.segs {
		if s.ext != nil {
			v.bufs = append(v.bufs, s.ext)
		} else if s.end > s.start {
			v.bufs = append(v.bufs, v.scratch[s.start:s.end:s.end])
		}
	}
	// net.Buffers.WriteTo consumes its receiver (advances the slice header
	// and zeroes written elements), so hand it the consumable view — bufs's
	// own header survives, and the zeroed elements are rewritten on the
	// next assembly pass.
	v.wview = v.bufs
	return v.wview.WriteTo(w)
}

// AppendFlat appends the frame bytes — length prefix included — to dst and
// returns it. It is the reference serialization WriteTo must match
// byte-for-byte; tests and the fuzz harness compare against it.
func (v *Vec) AppendFlat(dst []byte) []byte {
	n := v.Len()
	v.scratch[0] = byte(n >> 24)
	v.scratch[1] = byte(n >> 16)
	v.scratch[2] = byte(n >> 8)
	v.scratch[3] = byte(n)
	for _, s := range v.segs {
		if s.ext != nil {
			dst = append(dst, s.ext...)
		} else {
			dst = append(dst, v.scratch[s.start:s.end]...)
		}
	}
	return dst
}

// Vec pool. The serving path checks a Vec out per response; recycling keeps
// the scratch buffer and segment list warm. Oversized vectors are dropped
// (and counted) with the same rationale as PutBuffer.
var (
	vecPool = sync.Pool{New: func() interface{} {
		atomic.AddInt64(&vecPoolNews, 1)
		return &Vec{scratch: make([]byte, 0, 4096), segs: make([]vecSeg, 0, 64)}
	}}
	vecPoolGets     int64
	vecPoolNews     int64
	vecPoolDiscards int64
)

// maxPooledSegs bounds the segment list a pooled Vec may retain — a
// 1M-sample batch must not pin its segment headers forever.
const maxPooledSegs = 4096

// GetVec returns a reset Vec from the pool.
func GetVec() *Vec {
	atomic.AddInt64(&vecPoolGets, 1)
	v := vecPool.Get().(*Vec)
	v.Reset()
	return v
}

// PutVec recycles a Vec. The caller must not touch it (or the frame it
// described) afterwards. External payload references are dropped so the
// pool never prolongs a payload's lifetime.
func PutVec(v *Vec) {
	if v == nil {
		return
	}
	if cap(v.scratch) > maxPooledCap || cap(v.segs) > maxPooledSegs {
		atomic.AddInt64(&vecPoolDiscards, 1)
		return
	}
	for i := range v.segs {
		v.segs[i].ext = nil
	}
	v.segs = v.segs[:0]
	for i := range v.bufs {
		v.bufs[i] = nil
	}
	v.bufs = v.bufs[:0]
	v.wview = nil
	v.scratch = v.scratch[:0]
	vecPool.Put(v)
}

// VecPoolStats reports (gets, news, discards) for the Vec pool, mirroring
// PoolStats.
func VecPoolStats() (gets, news, discards int64) {
	return atomic.LoadInt64(&vecPoolGets), atomic.LoadInt64(&vecPoolNews), atomic.LoadInt64(&vecPoolDiscards)
}
