package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadFrame ensures arbitrary byte streams never panic the framer and
// never yield a frame larger than announced, and that the buffered
// FrameReader decodes every stream — all of its frames and the error that
// ends it — exactly as unbuffered reads do.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 2, 'y'})
	f.Fuzz(func(t *testing.T, in []byte) {
		checkSameAsUnbuffered(t, in, func(r io.Reader) io.Reader { return r })
		payload, err := ReadFrame(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("frame of %d bytes accepted", len(payload))
		}
		// A successfully read frame must round-trip.
		var buf bytes.Buffer
		if err := WritePayload(&buf, payload); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatal("round trip diverged")
		}
	})
}

// FuzzVec drives the vectored batch-response framing with arbitrary
// segment structures: the fuzz input is decoded into a list of payloads
// (interleaving empty and non-empty ones), framed through Vec, and checked
// three ways — WriteTo must emit exactly AppendFlat's bytes, the frame must
// read back through ReadFrame, and truncating the stream at any segment
// (iovec) boundary must produce a clean error, never a panic or a phantom
// frame. Seeds cover zero-length payloads and cuts exactly on the
// header/payload boundaries a writev would schedule.
func FuzzVec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                             // zero samples
	f.Add([]byte{1, 0})                          // one zero-length payload
	f.Add([]byte{3, 0, 0, 0})                    // three zero-length payloads
	f.Add([]byte{2, 3, 'a', 'b', 'c', 0})        // payload then empty
	f.Add([]byte{1, 5, 'h', 'e', 'l', 'l', 'o'}) // single payload
	f.Add([]byte{2, 1, 'x', 255, 'y', 'z'})      // length runs past input (clamped)
	f.Add(bytes.Repeat([]byte{4, 9}, 40))        // many mid-size segments
	f.Fuzz(func(t *testing.T, in []byte) {
		// Decode the input into payload slices: count byte, then per
		// payload a length byte followed by that many bytes (clamped to
		// what remains).
		var payloads [][]byte
		if len(in) > 0 {
			n := int(in[0]) % 32
			rest := in[1:]
			for i := 0; i < n && len(rest) > 0; i++ {
				l := int(rest[0])
				rest = rest[1:]
				if l > len(rest) {
					l = len(rest)
				}
				payloads = append(payloads, rest[:l:l])
				rest = rest[l:]
			}
		}

		var v Vec
		v.Reset()
		v.U8(0)
		v.U32(uint32(len(payloads)))
		for i, p := range payloads {
			v.I64(int64(i))
			v.U32(uint32(len(p)))
			v.Payload(p)
		}

		var e Buffer
		e.U8(0)
		e.U32(uint32(len(payloads)))
		for i, p := range payloads {
			e.I64(int64(i))
			e.U32(uint32(len(p)))
			e.B = append(e.B, p...)
		}
		var wantBuf bytes.Buffer
		if err := WritePayload(&wantBuf, e.B); err != nil {
			t.Fatal(err)
		}
		want := wantBuf.Bytes()

		if got := v.AppendFlat(nil); !bytes.Equal(got, want) {
			t.Fatal("AppendFlat diverged from scalar encoding")
		}
		var sink bytes.Buffer
		if n, err := v.WriteTo(&sink); err != nil || n != int64(len(want)) {
			t.Fatalf("WriteTo: n=%d err=%v", n, err)
		}
		if !bytes.Equal(sink.Bytes(), want) {
			t.Fatal("WriteTo diverged from scalar encoding")
		}

		// Truncate at every segment boundary the vectored writer would
		// schedule (header runs and payload slices): the reader must fail
		// cleanly on every prefix shorter than the frame.
		cut := 0
		for _, seg := range v.segs {
			segLen := seg.end - seg.start
			if seg.ext != nil {
				segLen = len(seg.ext)
			}
			cut += segLen
			if cut >= len(want) {
				break
			}
			if _, err := ReadFrame(bytes.NewReader(want[:cut])); err == nil {
				t.Fatalf("truncation at iovec boundary %d decoded without error", cut)
			}
		}
		if p, err := ReadFrame(bytes.NewReader(want)); err != nil || !bytes.Equal(p, e.B) {
			t.Fatal("full frame failed to read back")
		}
	})
}

// FuzzReader ensures the decoder never panics or reads out of bounds on
// arbitrary payloads.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := NewReader(in)
		_ = d.U8()
		_ = d.U32()
		_ = d.I64()
		_ = d.F64()
		_ = d.Str()
		_ = d.BytesField()
		if d.Off > len(in) {
			t.Fatalf("decoder overran: off %d of %d", d.Off, len(in))
		}
	})
}
