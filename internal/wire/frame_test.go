package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
)

// The I/O contract of the framing: one Write per frame out, and through a
// FrameReader one Read per small frame (or per run of pipelined small
// frames) in, with large bodies read straight into their destination. The
// fakes below count calls the way a socket would count syscalls.

// countingWriter records each Write call's bytes.
type countingWriter struct{ writes [][]byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// streamReader serves a byte stream like a socket with everything already
// queued: each Read returns as much as fits (capped at chunk when > 0). It
// counts calls and, per call, whether the destination lay inside direct —
// i.e. whether the bytes went straight to the caller's slice.
type streamReader struct {
	data   []byte
	chunk  int
	direct []byte

	reads       int
	directBytes int
	bufferBytes int
}

func (r *streamReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.chunk > 0 && len(p) > r.chunk {
		p = p[:r.chunk]
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	if within(p, r.direct) {
		r.directBytes += n
	} else {
		r.bufferBytes += n
	}
	return n, nil
}

// within reports whether p's first byte lies inside outer's backing array.
func within(p, outer []byte) bool {
	if len(p) == 0 || cap(outer) == 0 {
		return false
	}
	at, lo := reflect.ValueOf(p).Pointer(), reflect.ValueOf(outer).Pointer()
	return at >= lo && at < lo+uintptr(cap(outer))
}

// frameBytes is the reference serialization: prefix, then payload.
func frameBytes(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("ping"), bytes.Repeat([]byte{0x5A}, 64<<10)} {
		e := GetBuffer()
		e.B = append(e.B, payload...)
		var w countingWriter
		if err := WriteFrame(&w, e); err != nil {
			t.Fatalf("%d-byte payload: %v", len(payload), err)
		}
		// The buffer stays valid for a resend (a retried directory request).
		if err := WriteFrame(&w, e); err != nil {
			t.Fatalf("%d-byte payload, resend: %v", len(payload), err)
		}
		PutBuffer(e)
		if len(w.writes) != 2 {
			t.Fatalf("%d-byte payload: two frames took %d writes, want 2", len(payload), len(w.writes))
		}
		for _, got := range w.writes {
			if !bytes.Equal(got, frameBytes(payload)) {
				t.Fatalf("%d-byte payload: wrong bytes on the wire", len(payload))
			}
		}

		w = countingWriter{}
		if err := WritePayload(&w, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 || !bytes.Equal(w.writes[0], frameBytes(payload)) {
			t.Fatalf("%d-byte payload: WritePayload made %d writes", len(payload), len(w.writes))
		}
	}
}

// A frame that cannot be sent is rejected before any byte is written: a
// partial frame would desynchronize the stream.
func TestWriteFrameRejectsWithoutWriting(t *testing.T) {
	for name, e := range map[string]*Buffer{
		"oversized":          {B: make([]byte, framePrefix+MaxFrame+1)},
		"no reserved prefix": {B: []byte{1, 2}},
	} {
		var w countingWriter
		if err := WriteFrame(&w, e); err == nil {
			t.Errorf("%s: frame written", name)
		}
		if len(w.writes) != 0 {
			t.Errorf("%s: %d writes before the rejection", name, len(w.writes))
		}
	}
	// Exactly at the limit is a frame like any other.
	if err := WriteFrame(io.Discard, &Buffer{B: make([]byte, framePrefix+MaxFrame)}); err != nil {
		t.Fatalf("frame of MaxFrame bytes rejected: %v", err)
	}
}

func TestFrameReaderPipelinedFramesOneRead(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; len(stream) < readBufSize-200; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i%150)
		want = append(want, p)
		stream = append(stream, frameBytes(p)...)
	}
	src := &streamReader{data: stream}
	fr := NewFrameReader(src)
	for i, w := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d decoded wrong", i)
		}
	}
	if src.reads != 1 {
		t.Fatalf("%d pipelined frames (%d bytes) took %d reads, want 1", len(want), len(stream), src.reads)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// frameSeq reads frames until the first error.
func frameSeq(next func() ([]byte, error)) (frames [][]byte, err error) {
	for {
		p, err := next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, append([]byte(nil), p...))
	}
}

// sameErr compares terminal errors: the io sentinels by identity, the
// framer's own formatted errors by text.
func sameErr(a, b error) bool {
	return a == b || (a != nil && b != nil && a.Error() == b.Error())
}

// checkSameAsUnbuffered decodes stream (as delivered by deliver) three ways
// — ReadFrameInto on the bare reader, FrameReader.Next, and ReadFrameInto
// through a FrameReader — and requires identical frames and identical
// terminal errors.
func checkSameAsUnbuffered(t *testing.T, stream []byte, deliver func(io.Reader) io.Reader) {
	t.Helper()
	bare := deliver(bytes.NewReader(stream))
	var scratch []byte
	want, wantErr := frameSeq(func() ([]byte, error) {
		p, err := ReadFrameInto(bare, scratch)
		if err == nil {
			scratch = p[:0]
		}
		return p, err
	})
	fr := NewFrameReader(deliver(bytes.NewReader(stream)))
	got, gotErr := frameSeq(fr.Next)
	if !reflect.DeepEqual(got, want) || !sameErr(gotErr, wantErr) {
		t.Fatalf("Next: %d frames, %v; unbuffered: %d frames, %v", len(got), gotErr, len(want), wantErr)
	}
	fr = NewFrameReader(deliver(bytes.NewReader(stream)))
	got, gotErr = frameSeq(func() ([]byte, error) { return ReadFrame(fr) })
	if !reflect.DeepEqual(got, want) || !sameErr(gotErr, wantErr) {
		t.Fatalf("ReadFrame(FrameReader): %d frames, %v; unbuffered: %d frames, %v", len(got), gotErr, len(want), wantErr)
	}
}

func TestFrameReaderMatchesUnbufferedReads(t *testing.T) {
	small := frameBytes([]byte("abc"))
	big := frameBytes(bytes.Repeat([]byte{7}, 3*readBufSize+17))
	three := append(append(append([]byte(nil), small...), big...), frameBytes(nil)...)
	streams := map[string][]byte{
		"empty":            nil,
		"three frames":     three,
		"cut in prefix":    three[:len(small)+2],
		"cut in body":      three[:len(small)+len(big)-5],
		"cut in buffered":  small[:len(small)-1],
		"oversized prefix": append(append([]byte(nil), small...), 0xFF, 0xFF, 0xFF, 0xFF, 1),
	}
	deliveries := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data+err": iotest.DataErrReader,
	}
	for sn, stream := range streams {
		for dn, deliver := range deliveries {
			t.Run(sn+"/"+dn, func(t *testing.T) { checkSameAsUnbuffered(t, stream, deliver) })
		}
	}
}

func TestFrameReaderLargeBodyReadIntoDestination(t *testing.T) {
	// 16 KiB per read, the way a body larger than the socket buffer arrives.
	// The second length leaves a last piece smaller than the read-ahead, the
	// one part of a body besides its head that may go through the buffer.
	const chunk = 16 << 10
	for _, n := range []int{256 << 10, (readBufSize - framePrefix) + 15*chunk + 100} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 31)
		}
		dst := make([]byte, 0, n)
		src := &streamReader{data: frameBytes(body), chunk: chunk, direct: dst}
		got, err := ReadFrameInto(NewFrameReader(src), dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body corrupted", n)
		}
		if !within(got, dst) {
			t.Fatalf("%d-byte body not delivered in the caller's slice", n)
		}
		if src.bufferBytes >= 2*readBufSize {
			t.Fatalf("%d-byte body: %d bytes went through the read-ahead buffer, want under twice its size (%d)",
				n, src.bufferBytes, readBufSize)
		}
		if src.directBytes+src.bufferBytes != framePrefix+n {
			t.Fatalf("read %d bytes of a %d-byte frame", src.directBytes+src.bufferBytes, framePrefix+n)
		}
	}
}

func TestFrameIOAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3C}, 512)
	PutBuffer(GetBuffer()) // warm the pool
	if n := testing.AllocsPerRun(200, func() {
		e := GetBuffer()
		e.B = append(e.B, payload...)
		if err := WriteFrame(io.Discard, e); err != nil {
			t.Fatal(err)
		}
		PutBuffer(e)
	}); n != 0 {
		t.Errorf("WriteFrame: %v allocs per frame, want 0", n)
	}
	frame := frameBytes(payload)
	src := bytes.NewReader(frame)
	fr := NewFrameReader(src)
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		src.Reset(frame)
		if _, err := ReadFrameInto(fr, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state frame read: %v allocs per frame, want 0", n)
	}
}

// countingConn counts the Read and Write calls that reach the socket.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error)  { c.reads++; return c.Conn.Read(p) }
func (c *countingConn) Write(p []byte) (int, error) { c.writes++; return c.Conn.Write(p) }

// BenchmarkFrameRoundTrip is the framing layer on a real socket: one frame
// to a loopback TCP echo server and the same frame back, both ends using
// the serving paths' calls (pooled frame buffer + WriteFrame out,
// FrameReader in). Besides ns/op and allocs/op (0 in steady state, both
// ends included — the counters are process-wide) it reports the client's
// socket calls per round trip: writes/op is 1; reads/op is 1 for the small
// frame and, for the large one, however many reads the kernel splits the
// body into.
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"64B", 64}, {"64KiB", 64 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			echoed := make(chan struct{})
			go func() {
				defer close(echoed)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				rd := NewFrameReader(conn)
				for {
					req, err := rd.Next()
					if err != nil {
						return
					}
					e := GetBuffer()
					e.B = append(e.B, req...)
					err = WriteFrame(conn, e)
					PutBuffer(e)
					if err != nil {
						return
					}
				}
			}()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			conn := &countingConn{Conn: raw}
			rd := NewFrameReader(conn)
			payload := bytes.Repeat([]byte{0xA5}, bc.size)
			roundTrip := func() {
				e := GetBuffer()
				e.B = append(e.B, payload...)
				err := WriteFrame(conn, e)
				PutBuffer(e)
				if err != nil {
					b.Fatal(err)
				}
				got, err := rd.Next()
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != bc.size {
					b.Fatalf("echoed %d bytes of %d", len(got), bc.size)
				}
			}
			roundTrip() // size every buffer before counting
			conn.reads, conn.writes = 0, 0
			b.SetBytes(int64(2 * bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			b.StopTimer()
			b.ReportMetric(float64(conn.reads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(conn.writes)/float64(b.N), "writes/op")
			conn.Close()
			<-echoed
		})
	}
}
