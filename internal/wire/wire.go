// Package wire provides the length-prefixed framing and binary
// encode/decode helpers shared by the cache RPC protocol (internal/rpc) and
// the distributed directory protocol (internal/dkv): a 4-byte big-endian
// payload length followed by the payload, with big-endian integers and
// IEEE-754 float bits inside.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// MaxFrame bounds a single frame; a batch of 256 ImageNet samples is
// ~30 MB, so 256 MB leaves ample headroom while rejecting garbage lengths.
const MaxFrame = 256 << 20

// framePrefix is the size of the big-endian length prefix; frame buffers
// (GetBuffer) reserve it as B[:framePrefix].
const framePrefix = 4

// readBufSize is a connection's read-ahead (NewFrameReader). Control frames
// of both protocols (id lists, lookup answers, status replies) fit several
// at a time, so each arrives whole in one read(2); a payload-carrying body
// overflows it and is read straight into its destination — only its head
// and a last piece shorter than the buffer are copied through.
const readBufSize = 4096

// WriteFrame sends e as one length-prefixed frame in a single Write — on a
// connection one write(2), one TCP segment for a small frame: the prefix e
// reserved (GetBuffer) is patched in place. e stays valid for a resend.
func WriteFrame(w io.Writer, e *Buffer) error {
	n := len(e.B) - framePrefix
	if n < 0 {
		return fmt.Errorf("wire: frame written without a reserved prefix")
	}
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(e.B, uint32(n))
	_, err := w.Write(e.B)
	return err
}

// WritePayload frames a payload held as a plain []byte (a connection driven
// by hand): copied behind a pooled buffer's prefix, sent by WriteFrame.
func WritePayload(w io.Writer, payload []byte) error {
	e := GetBuffer()
	e.B = append(e.B, payload...)
	err := WriteFrame(w, e)
	PutBuffer(e)
	return err
}

// ReadFrame receives one length-prefixed payload into a fresh allocation.
// Hot paths that can prove the payload is not retained past the next read
// should prefer ReadFrameInto, which reuses a caller-owned buffer.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto receives one length-prefixed payload, reusing buf's backing
// array when it has sufficient capacity (allocating — and returning — a
// larger one otherwise). The returned slice aliases buf whenever it fits,
// so the caller must not retain references into a previous frame across
// calls: decode-and-copy before the next ReadFrameInto. Passing nil buf is
// equivalent to ReadFrame.
//
// It is the one frame parser: a Read for the prefix, Reads for the body. On
// a connection hand it the connection's FrameReader, not the bare conn: the
// prefix read then pulls in the body of a small frame (and any frames
// pipelined behind it) with the same read(2).
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The prefix lands in the destination's first bytes (the body overwrites
	// them): a local array would escape through r.Read, one alloc per frame.
	if cap(buf) < framePrefix {
		buf = make([]byte, framePrefix)
	}
	hdr := buf[:framePrefix]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	var payload []byte
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// FrameReader is the read side of one connection: a read-ahead buffer in
// front of ReadFrameInto plus a serving loop's reusable frame buffer. Every
// read on the connection must go through it (bytes read ahead exist nowhere
// else), and it is discarded with the connection: a redial's fresh reader is
// what drops a late response to a request that timed out. One reading
// goroutine per connection; not safe for concurrent use.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps the read side of a connection.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// Next receives one frame into the reader's own buffer; the payload is
// valid until the following Next call.
func (f *FrameReader) Next() ([]byte, error) {
	p, err := ReadFrameInto(f.br, f.buf)
	if err == nil {
		f.buf = p[:0]
	}
	return p, err
}

// Read lets ReadFrame/ReadFrameInto take the FrameReader when the caller
// supplies (or keeps) the destination.
func (f *FrameReader) Read(p []byte) (int, error) { return f.br.Read(p) }

// Encode-buffer pool. Response/request encoding on the serving path churns
// through short-lived append buffers; recycling them through a sync.Pool
// turns the per-request cost into a pointer swap once the pool is warm.
// The gets/news counters feed the pooled-buffer reuse-rate metric: reuse
// rate = 1 - news/gets (pool misses allocate a fresh buffer via New).
var (
	bufPool = sync.Pool{New: func() interface{} {
		atomic.AddInt64(&poolNews, 1)
		return &Buffer{B: make([]byte, 0, 4096)}
	}}
	poolGets     int64
	poolNews     int64
	poolDiscards int64
)

// maxPooledCap is the largest backing array PutBuffer keeps. One jumbo
// response must not poison the pool by pinning megabytes behind a pooled
// pointer, so anything larger is dropped (and counted) instead of recycled.
const maxPooledCap = 1 << 20

// GetBuffer returns a pooled frame buffer: empty but for the reserved
// length prefix, which WriteFrame patches (Vec.Reset does the same).
func GetBuffer() *Buffer {
	atomic.AddInt64(&poolGets, 1)
	b := bufPool.Get().(*Buffer)
	b.B = append(b.B[:0], 0, 0, 0, 0)
	return b
}

// PutBuffer recycles a frame buffer, into the ReaderPool it came from or
// the shared pool. The caller must not touch the buffer (or any slice of its
// backing array) afterwards. Oversized buffers are dropped — and counted in
// PoolStats — so one jumbo response does not pin megabytes in the pool.
func PutBuffer(b *Buffer) {
	switch {
	case b == nil:
	case cap(b.B) > maxPooledCap:
		atomic.AddInt64(&poolDiscards, 1)
	case b.home != nil:
		b.home.p.Put(b)
	default:
		bufPool.Put(b)
	}
}

// ReaderPool is the frame buffers of one connection's reader: the arrays its
// payload-carrying answers grew come back to it. In the shared pool such an
// array went to whichever encoder asked next, while the reader drew a 4 KiB
// one and allocated its next answer again. The zero value is ready to use.
type ReaderPool struct{ p sync.Pool }

// Get returns a buffer like GetBuffer's that PutBuffer hands back to rp.
func (rp *ReaderPool) Get() *Buffer {
	atomic.AddInt64(&poolGets, 1)
	b, _ := rp.p.Get().(*Buffer)
	if b == nil {
		atomic.AddInt64(&poolNews, 1)
		b = &Buffer{B: make([]byte, 0, readBufSize), home: rp}
	}
	b.B = append(b.B[:0], 0, 0, 0, 0)
	return b
}

// PoolStats reports (gets, news, discards): total pooled-buffer checkouts,
// how many of them had to allocate, and how many returns were dropped for
// exceeding the pooled-capacity cap. gets-news is the number of reuses.
func PoolStats() (gets, news, discards int64) {
	return atomic.LoadInt64(&poolGets), atomic.LoadInt64(&poolNews), atomic.LoadInt64(&poolDiscards)
}

// Buffer is a simple append-based encoder. The zero value encodes a bare
// payload into B; one from GetBuffer is a frame: B starts with the reserved
// length prefix, Payload is what follows.
type Buffer struct {
	B    []byte
	home *ReaderPool // where PutBuffer returns it; nil = the shared pool
}

// Payload returns what a frame buffer has encoded after its reserved prefix.
func (e *Buffer) Payload() []byte { return e.B[framePrefix:] }

// U8 appends one byte.
func (e *Buffer) U8(v byte) { e.B = append(e.B, v) }

// U32 appends a big-endian uint32.
func (e *Buffer) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// I64 appends a big-endian int64.
func (e *Buffer) I64(v int64) { e.B = binary.BigEndian.AppendUint64(e.B, uint64(v)) }

// F64 appends an IEEE-754 float64.
func (e *Buffer) F64(v float64) { e.B = binary.BigEndian.AppendUint64(e.B, math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string.
func (e *Buffer) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.B = append(e.B, v...)
}

// Str appends a length-prefixed string.
func (e *Buffer) Str(s string) { e.Bytes([]byte(s)) }

// Reader is the matching decoder; it fails sticky on short input.
type Reader struct {
	B   []byte
	Off int
	Err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{B: b} }

func (d *Reader) ensure(n int) bool {
	if d.Err != nil {
		return false
	}
	if d.Off+n > len(d.B) {
		d.Err = fmt.Errorf("wire: truncated message (need %d bytes at offset %d of %d)", n, d.Off, len(d.B))
		return false
	}
	return true
}

// U8 decodes one byte.
func (d *Reader) U8() byte {
	if !d.ensure(1) {
		return 0
	}
	v := d.B[d.Off]
	d.Off++
	return v
}

// U32 decodes a big-endian uint32.
func (d *Reader) U32() uint32 {
	if !d.ensure(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.B[d.Off:])
	d.Off += 4
	return v
}

// I64 decodes a big-endian int64.
func (d *Reader) I64() int64 {
	if !d.ensure(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.B[d.Off:])
	d.Off += 8
	return int64(v)
}

// F64 decodes an IEEE-754 float64.
func (d *Reader) F64() float64 {
	if !d.ensure(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.B[d.Off:])
	d.Off += 8
	return math.Float64frombits(v)
}

// BytesField decodes a length-prefixed byte string (aliasing the payload).
func (d *Reader) BytesField() []byte {
	n := int(d.U32())
	if d.Err != nil || !d.ensure(n) {
		return nil
	}
	v := d.B[d.Off : d.Off+n : d.Off+n]
	d.Off += n
	return v
}

// Str decodes a length-prefixed string.
func (d *Reader) Str() string { return string(d.BytesField()) }
