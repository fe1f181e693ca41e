package wire

import (
	"bytes"
	"net"
	"testing"
)

// buildBatchVec frames a GetBatch-shaped response (status, count, then
// id/len/payload triples) the way the serving path does.
func buildBatchVec(v *Vec, payloads [][]byte) {
	v.Reset()
	v.U8(0)
	v.U32(uint32(len(payloads)))
	for i, p := range payloads {
		v.I64(int64(i))
		v.U32(uint32(len(p)))
		v.Payload(p)
	}
}

// buildBatchFlat is the reference encoding via the scalar Buffer.
func buildBatchFlat(payloads [][]byte) []byte {
	var e Buffer
	e.U8(0)
	e.U32(uint32(len(payloads)))
	for i, p := range payloads {
		e.I64(int64(i))
		e.U32(uint32(len(p)))
		e.B = append(e.B, p...)
	}
	var frame bytes.Buffer
	if err := WritePayload(&frame, e.B); err != nil {
		panic(err)
	}
	return frame.Bytes()
}

func TestVecMatchesFlatEncoding(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("one")},
		{[]byte("one"), []byte("two"), []byte("three")},
		{nil, []byte("x"), {}},                    // zero-length payloads
		{bytes.Repeat([]byte{0xAB}, 64<<10), nil}, // one big, one empty
	}
	for ci, payloads := range cases {
		var v Vec
		buildBatchVec(&v, payloads)
		want := buildBatchFlat(payloads)

		if got := v.AppendFlat(nil); !bytes.Equal(got, want) {
			t.Fatalf("case %d: AppendFlat diverged from Buffer encoding", ci)
		}
		var sink bytes.Buffer
		n, err := v.WriteTo(&sink)
		if err != nil {
			t.Fatalf("case %d: WriteTo: %v", ci, err)
		}
		if n != int64(len(want)) || !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("case %d: WriteTo wrote %d bytes, diverged from flat encoding", ci, n)
		}
		// The frame must read back through the standard framer.
		payload, err := ReadFrame(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatalf("case %d: ReadFrame: %v", ci, err)
		}
		if !bytes.Equal(payload, want[4:]) {
			t.Fatalf("case %d: framed payload mismatch", ci)
		}
	}
}

func TestVecReuseAfterReset(t *testing.T) {
	var v Vec
	buildBatchVec(&v, [][]byte{[]byte("first")})
	a := v.AppendFlat(nil)
	buildBatchVec(&v, [][]byte{[]byte("second"), []byte("frame")})
	b := v.AppendFlat(nil)
	want := buildBatchFlat([][]byte{[]byte("second"), []byte("frame")})
	if !bytes.Equal(b, want) {
		t.Fatal("reused Vec produced a wrong frame")
	}
	if bytes.Equal(a, b) {
		t.Fatal("second frame identical to first; Reset did not clear")
	}
}

func TestVecWriteToTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		p, err := ReadFrame(conn)
		if err != nil {
			done <- nil
			return
		}
		done <- p
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payloads := [][]byte{bytes.Repeat([]byte{1}, 1000), bytes.Repeat([]byte{2}, 3000), {}}
	var v Vec
	buildBatchVec(&v, payloads)
	want := buildBatchFlat(payloads)
	if _, err := v.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !bytes.Equal(got, want[4:]) {
		t.Fatal("vectored TCP write diverged from flat encoding")
	}
}

func TestVecRejectsOversizedFrame(t *testing.T) {
	var v Vec
	v.Reset()
	v.U8(0)
	// Reference (not allocate) a payload bigger than MaxFrame by stacking
	// the same 32 MiB slice.
	chunk := make([]byte, 32<<20)
	for i := 0; i < (MaxFrame/len(chunk))+1; i++ {
		v.Payload(chunk)
	}
	if _, err := v.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("oversized vectored frame accepted")
	}
}

func TestVecWriteBeforeResetFails(t *testing.T) {
	var v Vec
	if _, err := v.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo on an unreset Vec must fail, not panic")
	}
}

func TestVecPool(t *testing.T) {
	v := GetVec()
	v.U8(1)
	v.Payload([]byte("payload"))
	PutVec(v)
	v2 := GetVec()
	defer PutVec(v2)
	if got := v2.Len(); got != 0 {
		t.Fatalf("recycled Vec not reset: len=%d", got)
	}
	gets, news, _ := VecPoolStats()
	if gets < 2 || news < 1 || news > gets {
		t.Fatalf("implausible vec pool stats: gets=%d news=%d", gets, news)
	}

	_, _, d0 := VecPoolStats()
	PutVec(&Vec{scratch: make([]byte, 0, 2<<20)})
	if _, _, d := VecPoolStats(); d != d0+1 {
		t.Fatal("oversized vec return not counted as a discard")
	}
	PutVec(nil) // must not panic or count
	if _, _, d := VecPoolStats(); d != d0+1 {
		t.Fatal("nil vec return counted as a discard")
	}
}

// BenchmarkVecWrite measures the vectored frame assembly + write against a
// prebuilt discard connection — the per-response overhead of the zero-copy
// path. Allocation-free after warmup.
func BenchmarkVecWrite(b *testing.B) {
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	var sink discardWriter
	v := GetVec()
	defer PutVec(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Reset()
		v.U8(0)
		v.U32(16)
		for j := 0; j < 16; j++ {
			v.I64(int64(j))
			v.U32(uint32(len(payload)))
			v.Payload(payload)
		}
		if _, err := v.WriteTo(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
