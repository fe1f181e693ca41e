// Package obs is the observability substrate of the serving path:
// allocation-free, lock-striped latency histograms with log-scaled buckets,
// a named-histogram registry, a stdlib-only Prometheus text-format writer,
// the one bounded ring (Ring) under the trace recorder, the control-plane
// journal and the timeline, and the compact cross-node trace context
// carried in wire frames.
//
// Everything here follows the nil-recorder pattern the rest of the repo
// uses for tracing: a nil *Histogram, *Registry, *Sampler, or *RateLimiter
// is a valid no-op value, so instrumented call sites need no conditionals
// and cost (almost) nothing when observability is disabled. The package
// imports only the standard library, so every layer — wire, rpc, dkv,
// icache — can depend on it without cycles.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket k holds
// durations d with bits.Len64(d_ns) == k, i.e. d in [2^(k-1), 2^k) ns
// (bucket 0 holds d == 0). 40 buckets cover 1 ns .. ~550 s, more than any
// serving-path stage can take; larger values clamp into the last bucket.
const NumBuckets = 40

// numStripes spreads concurrent Record calls across independent cache
// lines so a hot histogram does not serialize its writers. Must be a power
// of two.
const numStripes = 8

// stripe is one independent shard of a histogram's counters, padded to its
// own cache line region so neighbouring stripes do not false-share.
type stripe struct {
	count   uint64
	sum     uint64 // nanoseconds
	max     uint64 // nanoseconds
	buckets [NumBuckets]uint64
	_       [64]byte // pad: keep the next stripe's hot words off this line
}

// Histogram is a concurrency-safe latency histogram with fixed log-scaled
// (power-of-two nanosecond) buckets. Record is lock-free: it picks a
// stripe by hashing the recorded value and touches only atomics. The zero
// value is ready to use; a nil *Histogram ignores Record calls, so call
// sites follow the nil-recorder pattern.
type Histogram struct {
	stripes [numStripes]stripe
}

// NewHistogram allocates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a duration to its bucket: 0 for d <= 0, else
// bits.Len64(ns) clamped to the last bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	k := bits.Len64(uint64(d))
	if k >= NumBuckets {
		k = NumBuckets - 1
	}
	return k
}

// BucketUpper reports bucket k's inclusive upper bound in nanoseconds
// (2^k - 1; bucket 0's bound is 0). The last bucket's nominal bound is
// still reported, though it absorbs all larger values.
func BucketUpper(k int) int64 {
	if k <= 0 {
		return 0
	}
	return int64(1)<<uint(k) - 1
}

// bucketLower reports bucket k's inclusive lower bound in nanoseconds.
func bucketLower(k int) int64 {
	if k <= 0 {
		return 0
	}
	return int64(1) << uint(k-1)
}

// Record adds one observation. Negative durations clamp to zero. Safe for
// concurrent use and safe on a nil receiver (no-op).
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	// Fibonacci-hash the value to a stripe: concurrent recorders almost
	// always carry distinct nanosecond timings, so they land on distinct
	// stripes without any shared state.
	s := &h.stripes[(ns*0x9E3779B97F4A7C15)>>(64-3)&(numStripes-1)]
	atomic.AddUint64(&s.count, 1)
	atomic.AddUint64(&s.sum, ns)
	atomic.AddUint64(&s.buckets[bucketIndex(d)], 1)
	for {
		cur := atomic.LoadUint64(&s.max)
		if ns <= cur || atomic.CompareAndSwapUint64(&s.max, cur, ns) {
			break
		}
	}
}

// Since records the time elapsed from t0 (no-op on nil, or when t0 is the
// zero time — the disabled-path sentinel).
func (h *Histogram) Since(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Record(time.Since(t0))
}

// Snapshot sums the stripes into a mergeable point-in-time view. The read
// is loosely consistent (stripes are read with atomic loads but not as one
// transaction), which is the standard contract for stats scraping.
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	if h == nil {
		return out
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		out.Count += atomic.LoadUint64(&s.count)
		out.Sum += atomic.LoadUint64(&s.sum)
		if m := atomic.LoadUint64(&s.max); m > out.MaxNs {
			out.MaxNs = m
		}
		for k := 0; k < NumBuckets; k++ {
			out.Buckets[k] += atomic.LoadUint64(&s.buckets[k])
		}
	}
	return out
}

// HistSnapshot is an immutable histogram view: bucket counts plus count,
// sum, and max. Snapshots merge (Merge) and answer quantile queries
// (Quantile) — the p50/p95/p99 every exposition surface reports.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64 // nanoseconds
	MaxNs   uint64 // largest recorded value, nanoseconds
	Buckets [NumBuckets]uint64
}

// Merge combines two snapshots (bucket-wise addition; max of maxes). The
// quantile estimates of the result are bounded by the inputs' — the
// property test in hist_test.go pins that.
func Merge(a, b HistSnapshot) HistSnapshot {
	out := a
	out.Count += b.Count
	out.Sum += b.Sum
	if b.MaxNs > out.MaxNs {
		out.MaxNs = b.MaxNs
	}
	for k := 0; k < NumBuckets; k++ {
		out.Buckets[k] += b.Buckets[k]
	}
	return out
}

// Mean reports the average recorded duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Max reports the largest recorded duration.
func (s HistSnapshot) Max() time.Duration { return time.Duration(s.MaxNs) }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by locating the target
// rank's bucket and interpolating linearly inside it — the same
// linear-interpolation convention metrics.Series.Percentile uses on raw
// samples, so the two estimators agree to within one bucket's width (a
// documented, tested invariant). Out-of-range q clamps; an empty snapshot
// reports 0. The estimate never exceeds the recorded max.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1) // 0-based fractional rank, Series-style
	var cum float64
	for k := 0; k < NumBuckets; k++ {
		n := float64(s.Buckets[k])
		if n == 0 {
			continue
		}
		if rank < cum+n || k == NumBuckets-1 && cum+n >= float64(s.Count) {
			lo, hi := float64(bucketLower(k)), float64(BucketUpper(k))
			if up := float64(s.MaxNs); up < hi {
				hi = up // the last occupied bucket is bounded by the max
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if n > 1 {
				frac = (rank - cum) / (n - 1)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return time.Duration(lo + frac*(hi-lo))
		}
		cum += n
	}
	return time.Duration(s.MaxNs)
}

// P50, P95, and P99 are the conventional summary quantiles.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P95 is the 95th-percentile estimate.
func (s HistSnapshot) P95() time.Duration { return s.Quantile(0.95) }

// P99 is the 99th-percentile estimate.
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }
