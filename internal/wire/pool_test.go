package wire

import (
	"bytes"
	"io"
	"testing"
)

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var netBuf bytes.Buffer
	payload := []byte("hello, frame")
	if err := WritePayload(&netBuf, payload); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 64)
	got, err := ReadFrameInto(&netBuf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("ReadFrameInto did not reuse the provided buffer")
	}
}

func TestReadFrameIntoGrowsWhenSmall(t *testing.T) {
	var netBuf bytes.Buffer
	payload := bytes.Repeat([]byte{0xAB}, 256)
	if err := WritePayload(&netBuf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&netBuf, make([]byte, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after growth")
	}
}

func TestReadFrameIntoNilBuf(t *testing.T) {
	var netBuf bytes.Buffer
	if err := WritePayload(&netBuf, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&netBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("payload mismatch: %v", got)
	}
}

func TestReadFrameIntoTruncated(t *testing.T) {
	var netBuf bytes.Buffer
	if err := WritePayload(&netBuf, []byte("full frame")); err != nil {
		t.Fatal(err)
	}
	trunc := netBuf.Bytes()[:netBuf.Len()-3]
	if _, err := ReadFrameInto(bytes.NewReader(trunc), make([]byte, 0, 64)); err == nil {
		t.Fatal("truncated frame decoded without error")
	} else if err != io.ErrUnexpectedEOF {
		// Accept any error, but the usual one is ErrUnexpectedEOF; log for
		// visibility if the io layer changes.
		t.Logf("truncated frame error: %v", err)
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer()
	if len(b.B) != framePrefix || len(b.Payload()) != 0 {
		t.Fatalf("pooled buffer not reset to its bare prefix: len=%d", len(b.B))
	}
	b.U8(7)
	b.Str("payload")
	PutBuffer(b)
	// A fresh checkout must come back empty even if it is the same buffer.
	b2 := GetBuffer()
	defer PutBuffer(b2)
	if len(b2.Payload()) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(b2.B))
	}
	gets, news, _ := PoolStats()
	if gets < 2 || news < 1 || news > gets {
		t.Fatalf("implausible pool stats: gets=%d news=%d", gets, news)
	}
}

func TestPutBufferDropsJumbo(t *testing.T) {
	_, _, d0 := PoolStats()
	b := &Buffer{B: make([]byte, 0, 2<<20)}
	PutBuffer(b) // must not panic, must not retain
	if _, _, d := PoolStats(); d != d0+1 {
		t.Fatalf("jumbo return not counted as a discard: %d -> %d", d0, d)
	}
	PutBuffer(nil)
	if _, _, d := PoolStats(); d != d0+1 {
		t.Fatalf("nil return counted as a discard")
	}
	// A buffer at exactly the cap is kept.
	PutBuffer(&Buffer{B: make([]byte, 0, maxPooledCap)})
	if _, _, d := PoolStats(); d != d0+1 {
		t.Fatalf("at-cap return dropped")
	}
}

// BenchmarkReadFrame measures the allocating read path.
func BenchmarkReadFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	var frame bytes.Buffer
	if err := WritePayload(&frame, payload); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrameInto measures the pooled/reusing read path — the one
// the serving loop uses. It should run allocation-free after warmup.
func BenchmarkReadFrameInto(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	var frame bytes.Buffer
	if err := WritePayload(&frame, payload); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadFrameInto(bytes.NewReader(raw), buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = got[:0]
	}
}

// BenchmarkEncodePooled measures response encoding through the buffer
// pool vs. a fresh Buffer per response.
func BenchmarkEncodePooled(b *testing.B) {
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := GetBuffer()
		e.U8(0)
		e.U32(8)
		for j := 0; j < 8; j++ {
			e.I64(int64(j))
			e.Bytes(payload)
		}
		PutBuffer(e)
	}
}

// BenchmarkEncodeFresh is the baseline: a new buffer every response.
func BenchmarkEncodeFresh(b *testing.B) {
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e Buffer
		e.U8(0)
		e.U32(8)
		for j := 0; j < 8; j++ {
			e.I64(int64(j))
			e.Bytes(payload)
		}
		_ = e.B
	}
}
