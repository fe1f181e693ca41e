package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WritePayload(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePayload(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty frame decoded to %d bytes", len(got))
	}
}

func TestReadFrameOversizedHeader(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(buf); err == nil {
		t.Fatal("4 GB header accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 0, 0, 10, 'x'})
	if _, err := ReadFrame(buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Buffer
	e.U8(7)
	e.U32(1 << 30)
	e.I64(-42)
	e.F64(math.Pi)
	e.Str("hello")
	e.Bytes([]byte{1, 2, 3})

	d := NewReader(e.B)
	if d.U8() != 7 || d.U32() != 1<<30 || d.I64() != -42 {
		t.Fatal("scalar round trip failed")
	}
	if d.F64() != math.Pi {
		t.Fatal("float round trip failed")
	}
	if d.Str() != "hello" {
		t.Fatal("string round trip failed")
	}
	if b := d.BytesField(); len(b) != 3 || b[2] != 3 {
		t.Fatal("bytes round trip failed")
	}
	if d.Err != nil {
		t.Fatal(d.Err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewReader([]byte{1})
	_ = d.U32() // short: sets Err
	if d.Err == nil {
		t.Fatal("short read did not error")
	}
	if d.U8() != 0 || d.I64() != 0 || d.Str() != "" {
		t.Fatal("decoder produced values after error")
	}
}

// Property: any sequence of scalar writes decodes back identically.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			kind int
			i    int64
			f    float64
			s    string
		}
		var ops []op
		var e Buffer
		for k := 0; k < 50; k++ {
			o := op{kind: rng.Intn(4), i: rng.Int63() - rng.Int63(), f: rng.NormFloat64()}
			o.s = string(rune('a' + rng.Intn(26)))
			switch o.kind {
			case 0:
				e.U32(uint32(o.i))
			case 1:
				e.I64(o.i)
			case 2:
				e.F64(o.f)
			case 3:
				e.Str(o.s)
			}
			ops = append(ops, o)
		}
		d := NewReader(e.B)
		for _, o := range ops {
			switch o.kind {
			case 0:
				if d.U32() != uint32(o.i) {
					return false
				}
			case 1:
				if d.I64() != o.i {
					return false
				}
			case 2:
				if d.F64() != o.f {
					return false
				}
			case 3:
				if d.Str() != o.s {
					return false
				}
			}
		}
		return d.Err == nil && d.Off == len(d.B)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
