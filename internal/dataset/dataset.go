// Package dataset provides the synthetic training datasets used throughout
// the reproduction.
//
// The paper evaluates on CIFAR10 (50 000 samples, ~3 KB each) and ImageNet-1K
// (1 281 167 samples, ~110 KB each, 140 GB total). Neither raw dataset is
// available offline, and none of the cache behaviour the paper measures
// depends on pixel content — only on sample counts, sizes, and the access
// order induced by the sampler. This package therefore generates datasets
// with the real cardinalities and size distributions and fully deterministic
// per-sample payloads, so the RPC path can serve real bytes and tests can
// verify end-to-end integrity.
package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// SampleID identifies a sample within a dataset. IDs are dense: a dataset
// with n samples uses IDs 0..n-1, matching how PyTorch datasets index.
type SampleID int64

// Spec describes a synthetic dataset. The zero value is not usable; build
// specs with the constructors or fill every field.
type Spec struct {
	// Name labels the dataset in experiment output, e.g. "cifar10".
	Name string
	// NumSamples is the dataset cardinality.
	NumSamples int
	// MeanSampleBytes is the average encoded sample size.
	MeanSampleBytes int
	// SizeJitterFrac is the ± fractional spread of per-sample sizes around
	// the mean (0 gives fixed-size samples).
	SizeJitterFrac float64
	// Seed decorrelates datasets that otherwise share parameters.
	Seed uint64
}

// CIFAR10 returns a spec with CIFAR10's real geometry: 50 000 samples of
// 3 073 bytes (32×32×3 pixels + label) with no size variance.
func CIFAR10() Spec {
	return Spec{Name: "cifar10", NumSamples: 50000, MeanSampleBytes: 3073, SizeJitterFrac: 0, Seed: 0xC1FA}
}

// ImageNet returns a spec with ImageNet-1K's real geometry: 1 281 167 JPEG
// samples averaging ~110 KB with substantial size variance.
func ImageNet() Spec {
	return Spec{Name: "imagenet", NumSamples: 1281167, MeanSampleBytes: 110 * 1024, SizeJitterFrac: 0.45, Seed: 0x1A6E}
}

// ImageNetScaled returns a 10%-cardinality ImageNet surrogate used by the
// default experiment configurations so a full evaluation sweep stays fast.
// Per-sample geometry is unchanged; only the count shrinks, and every
// experiment scales its cache budget as a fraction of the dataset, so cache
// dynamics are preserved.
func ImageNetScaled() Spec {
	return Spec{Name: "imagenet-10pct", NumSamples: 128116, MeanSampleBytes: 110 * 1024, SizeJitterFrac: 0.45, Seed: 0x1A6E}
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("dataset: empty name")
	case s.NumSamples <= 0:
		return fmt.Errorf("dataset %q: NumSamples=%d, want > 0", s.Name, s.NumSamples)
	case s.MeanSampleBytes <= 0:
		return fmt.Errorf("dataset %q: MeanSampleBytes=%d, want > 0", s.Name, s.MeanSampleBytes)
	case s.SizeJitterFrac < 0 || s.SizeJitterFrac >= 1:
		return fmt.Errorf("dataset %q: SizeJitterFrac=%g, want [0,1)", s.Name, s.SizeJitterFrac)
	}
	return nil
}

// Contains reports whether id is a valid sample ID for the dataset.
func (s Spec) Contains(id SampleID) bool {
	return id >= 0 && int64(id) < int64(s.NumSamples)
}

// SampleBytes returns the deterministic encoded size of a sample.
func (s Spec) SampleBytes(id SampleID) int {
	if !s.Contains(id) {
		panic(fmt.Sprintf("dataset %q: sample %d out of range [0,%d)", s.Name, id, s.NumSamples))
	}
	if s.SizeJitterFrac == 0 {
		return s.MeanSampleBytes
	}
	u := Unit(uint64(id), s.Seed^0x5126) // uniform [0,1)
	f := 1 + s.SizeJitterFrac*(2*u-1)    // uniform in [1-j, 1+j)
	n := int(math.Round(float64(s.MeanSampleBytes) * f))
	if n < 1 {
		n = 1
	}
	return n
}

// TotalBytes returns the exact summed size of the dataset. It is O(n) for
// jittered datasets and O(1) otherwise.
func (s Spec) TotalBytes() int64 {
	if s.SizeJitterFrac == 0 {
		return int64(s.NumSamples) * int64(s.MeanSampleBytes)
	}
	var total int64
	for id := 0; id < s.NumSamples; id++ {
		total += int64(s.SampleBytes(SampleID(id)))
	}
	return total
}

// Difficulty returns the intrinsic learning difficulty of a sample in (0,1).
// The training-loss model in internal/train derives each sample's loss
// trajectory from this value: hard samples keep high losses (and hence high
// importance) for longer. The distribution is right-skewed — most samples
// are easy, a minority are hard — which matches the empirical loss
// distributions the loss-based importance-sampling literature reports.
func (s Spec) Difficulty(id SampleID) float64 {
	if !s.Contains(id) {
		panic(fmt.Sprintf("dataset %q: sample %d out of range [0,%d)", s.Name, id, s.NumSamples))
	}
	u := Unit(uint64(id), s.Seed^0xD1FF)
	// Square the uniform to skew mass toward easy samples, then keep the
	// value strictly inside (0,1) so downstream math never divides by zero.
	d := u * u
	return 0.02 + 0.96*d
}

// Payload materializes the deterministic byte content of a sample as
// little-endian 64-bit words: word 0 is the sample ID, so integrity checks can
// detect mixed-up responses on the RPC path, and every later word is one step
// of an xorshift stream seeded from (id, Seed). A length that is not a
// multiple of 8 ends on the low bytes of the next word.
func (s Spec) Payload(id SampleID) []byte {
	buf := make([]byte, s.SampleBytes(id))
	word, state := uint64(id), mix(uint64(id), s.Seed^0x9A71)
	for i := 0; i < len(buf); i += 8 {
		if i+8 <= len(buf) {
			binary.LittleEndian.PutUint64(buf[i:], word)
		} else {
			for j := i; j < len(buf); j++ {
				buf[j] = byte(word >> (8 * (j - i)))
			}
		}
		state = xorshift(state)
		word = state
	}
	return buf
}

// VerifyPayload checks that buf is exactly the payload of sample id: the
// right length and every byte of Payload's stream, which it walks without
// materializing (no allocation). The error names the first mismatching byte.
func (s Spec) VerifyPayload(id SampleID, buf []byte) error {
	if want := s.SampleBytes(id); len(buf) != want {
		return fmt.Errorf("dataset %q sample %d: payload length %d, want %d", s.Name, id, len(buf), want)
	}
	word, state := uint64(id), mix(uint64(id), s.Seed^0x9A71)
	for i := 0; i < len(buf); i += 8 {
		var got uint64
		if i+8 <= len(buf) {
			got = binary.LittleEndian.Uint64(buf[i:])
		} else {
			for j := len(buf) - 1; j >= i; j-- {
				got = got<<8 | uint64(buf[j])
			}
			word &= 1<<(8*(len(buf)-i)) - 1
		}
		if got != word {
			part, off := "body", i+bits.TrailingZeros64(got^word)/8
			if off < 8 {
				part = "header"
			}
			return fmt.Errorf("dataset %q sample %d: payload %s mismatch at byte %d", s.Name, id, part, off)
		}
		state = xorshift(state)
		word = state
	}
	return nil
}

// xorshift is one step of Marsaglia's 64-bit xorshift (13, 7, 17).
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

// AllIDs returns the dense ID list 0..n-1. Callers that only iterate should
// prefer a plain loop; this helper exists for samplers that shuffle a copy.
func (s Spec) AllIDs() []SampleID {
	ids := make([]SampleID, s.NumSamples)
	for i := range ids {
		ids[i] = SampleID(i)
	}
	return ids
}

// Unit hashes (x, salt) to a uniform float64 in [0, 1). It is the shared
// deterministic randomness primitive for per-sample traits; using a hash
// instead of a sequential PRNG keeps every trait addressable by ID alone.
func Unit(x, salt uint64) float64 {
	h := mix(x, salt)
	return float64(h>>11) / float64(1<<53)
}

// mix is splitmix64's finalizer applied to x blended with salt.
func mix(x, salt uint64) uint64 {
	z := x + salt + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
