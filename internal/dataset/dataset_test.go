package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinSpecsValidate(t *testing.T) {
	for _, s := range []Spec{CIFAR10(), ImageNet(), ImageNetScaled()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{Name: "", NumSamples: 1, MeanSampleBytes: 1},
		{Name: "x", NumSamples: 0, MeanSampleBytes: 1},
		{Name: "x", NumSamples: 1, MeanSampleBytes: 0},
		{Name: "x", NumSamples: 1, MeanSampleBytes: 1, SizeJitterFrac: 1.0},
		{Name: "x", NumSamples: 1, MeanSampleBytes: 1, SizeJitterFrac: -0.1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate() = nil, want error", i, s)
		}
	}
}

func TestCIFAR10Geometry(t *testing.T) {
	s := CIFAR10()
	if s.NumSamples != 50000 {
		t.Fatalf("NumSamples = %d, want 50000", s.NumSamples)
	}
	if got := s.SampleBytes(0); got != 3073 {
		t.Fatalf("SampleBytes(0) = %d, want 3073", got)
	}
	if got := s.TotalBytes(); got != int64(50000)*3073 {
		t.Fatalf("TotalBytes = %d, want %d", got, int64(50000)*3073)
	}
}

func TestImageNetSizeDistribution(t *testing.T) {
	s := ImageNetScaled()
	var sum float64
	minSz, maxSz := math.MaxInt, 0
	for id := 0; id < 10000; id++ {
		n := s.SampleBytes(SampleID(id))
		sum += float64(n)
		if n < minSz {
			minSz = n
		}
		if n > maxSz {
			maxSz = n
		}
	}
	mean := sum / 10000
	if math.Abs(mean-float64(s.MeanSampleBytes)) > 0.05*float64(s.MeanSampleBytes) {
		t.Errorf("empirical mean %0.f deviates >5%% from spec mean %d", mean, s.MeanSampleBytes)
	}
	lo := float64(s.MeanSampleBytes) * (1 - s.SizeJitterFrac)
	hi := float64(s.MeanSampleBytes) * (1 + s.SizeJitterFrac)
	if float64(minSz) < lo-1 || float64(maxSz) > hi+1 {
		t.Errorf("sizes [%d,%d] outside jitter bounds [%.0f,%.0f]", minSz, maxSz, lo, hi)
	}
	if minSz == maxSz {
		t.Error("jittered dataset produced constant sizes")
	}
}

func TestSampleBytesDeterministic(t *testing.T) {
	s := ImageNet()
	for _, id := range []SampleID{0, 1, 999, 1281166} {
		if a, b := s.SampleBytes(id), s.SampleBytes(id); a != b {
			t.Fatalf("SampleBytes(%d) nondeterministic: %d vs %d", id, a, b)
		}
	}
}

func TestContains(t *testing.T) {
	s := CIFAR10()
	if s.Contains(-1) || s.Contains(50000) {
		t.Error("Contains accepted out-of-range IDs")
	}
	if !s.Contains(0) || !s.Contains(49999) {
		t.Error("Contains rejected valid IDs")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := CIFAR10()
	for name, fn := range map[string]func(){
		"SampleBytes": func() { s.SampleBytes(50000) },
		"Difficulty":  func() { s.Difficulty(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad ID did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDifficultyRangeAndSkew(t *testing.T) {
	s := CIFAR10()
	var sum float64
	hard := 0
	for id := 0; id < s.NumSamples; id++ {
		d := s.Difficulty(SampleID(id))
		if d <= 0 || d >= 1 {
			t.Fatalf("Difficulty(%d) = %g, want (0,1)", id, d)
		}
		sum += d
		if d > 0.5 {
			hard++
		}
	}
	mean := sum / float64(s.NumSamples)
	if mean > 0.45 {
		t.Errorf("mean difficulty %g — distribution should be skewed easy (<0.45)", mean)
	}
	frac := float64(hard) / float64(s.NumSamples)
	if frac < 0.1 || frac > 0.5 {
		t.Errorf("hard fraction %g, want a real minority in [0.1,0.5]", frac)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	s := ImageNetScaled()
	for _, id := range []SampleID{0, 7, 12345, SampleID(s.NumSamples - 1)} {
		p := s.Payload(id)
		if len(p) != s.SampleBytes(id) {
			t.Fatalf("Payload(%d) length %d, want %d", id, len(p), s.SampleBytes(id))
		}
		if err := s.VerifyPayload(id, p); err != nil {
			t.Fatalf("VerifyPayload(%d): %v", id, err)
		}
	}
}

func TestVerifyPayloadDetectsCorruption(t *testing.T) {
	s := CIFAR10() // 3073 bytes: 384 whole words and a one-byte tail
	if err := s.VerifyPayload(43, s.Payload(42)); err == nil {
		t.Error("payload of 42 verified as 43")
	}
	if err := s.VerifyPayload(42, s.Payload(42)[:10]); err == nil {
		t.Error("truncated payload went undetected")
	}
	// Every byte is checked, and the first wrong one is named: in the header,
	// at a word boundary and inside a word of the body, in the last whole
	// word, and in a tail shorter than a word.
	odd := Spec{Name: "odd", NumSamples: 100, MeanSampleBytes: 61, Seed: 3} // 7 words + 5 bytes
	for _, tc := range []struct {
		spec Spec
		off  int
		part string
	}{
		{s, 0, "header"}, {s, 5, "header"},
		{s, 8, "body"}, {s, 1024, "body"}, {s, 1027, "body"},
		{s, 3064, "body"}, {s, 3071, "body"}, {s, 3072, "body"},
		{odd, 55, "body"}, {odd, 56, "body"}, {odd, 60, "body"},
	} {
		p := tc.spec.Payload(42)
		p[tc.off] ^= 0x10
		if tc.off+1 < len(p) {
			p[len(p)-1] ^= 0xFF // a later mismatch must not be the one reported
		}
		err := tc.spec.VerifyPayload(42, p)
		want := fmt.Sprintf("payload %s mismatch at byte %d", tc.part, tc.off)
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: flipped byte %d of %d: got %v, want ...%q", tc.spec.Name, tc.off, len(p), err, want)
		}
	}
}

// TestPayloadTinySamples: lengths below and just past the 8-byte header
// round-trip and still embed the id's low bytes first.
func TestPayloadTinySamples(t *testing.T) {
	for n := 1; n <= 17; n++ {
		s := Spec{Name: "tiny", NumSamples: 1 << 20, MeanSampleBytes: n, Seed: 9}
		const id = SampleID(0x0A0B0C)
		p := s.Payload(id)
		if len(p) != n || p[0] != 0x0C || (n > 2 && p[2] != 0x0A) {
			t.Fatalf("n=%d: payload % x does not start with the id", n, p)
		}
		if err := s.VerifyPayload(id, p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestVerifyPayloadDoesNotAllocate(t *testing.T) {
	s := CIFAR10()
	p := s.Payload(7)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.VerifyPayload(7, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("VerifyPayload allocates %v times per call, want 0", n)
	}
}

var benchSink []byte

// The benchmark harness generates a payload per backend read and verifies one
// per served sample, so both must stay far below a backend latency (4 KiB is
// the benchmark's sample size).
func BenchmarkPayload(b *testing.B) {
	for _, n := range []int{4 << 10, 16 << 10} {
		s := Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: n, Seed: 7}
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				benchSink = s.Payload(SampleID(i % s.NumSamples))
			}
		})
	}
}

func BenchmarkVerifyPayload(b *testing.B) {
	for _, n := range []int{4 << 10, 16 << 10} {
		s := Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: n, Seed: 7}
		p := s.Payload(11)
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if err := s.VerifyPayload(11, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPayloadsDifferAcrossSamples(t *testing.T) {
	s := CIFAR10()
	a, b := s.Payload(1), s.Payload(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("payloads of distinct samples agree on %d/%d bytes", same, len(a))
	}
}

func TestAllIDsDense(t *testing.T) {
	s := Spec{Name: "tiny", NumSamples: 5, MeanSampleBytes: 10}
	ids := s.AllIDs()
	if len(ids) != 5 {
		t.Fatalf("len = %d, want 5", len(ids))
	}
	for i, id := range ids {
		if id != SampleID(i) {
			t.Fatalf("ids[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestUnitUniformity(t *testing.T) {
	const n = 100000
	buckets := make([]int, 10)
	for i := uint64(0); i < n; i++ {
		u := Unit(i, 99)
		if u < 0 || u >= 1 {
			t.Fatalf("Unit out of range: %g", u)
		}
		buckets[int(u*10)]++
	}
	for b, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d has %d of %d — not uniform", b, c, n)
		}
	}
}

func TestUnitSaltDecorrelates(t *testing.T) {
	f := func(x uint64) bool {
		return Unit(x, 1) != Unit(x, 2) || Unit(x+1, 1) != Unit(x+1, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalBytesJitteredMatchesSum(t *testing.T) {
	s := Spec{Name: "j", NumSamples: 1000, MeanSampleBytes: 500, SizeJitterFrac: 0.3, Seed: 7}
	var want int64
	for id := 0; id < s.NumSamples; id++ {
		want += int64(s.SampleBytes(SampleID(id)))
	}
	if got := s.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}
