package main

import (
	"math"
	"sort"
	"time"

	"icache/internal/obs"
)

// tailLadder is the set of percentiles a latency may be reported at, highest
// first, each with the k for which one sample in k lies beyond it. A
// percentile is only trusted when at least tailBeyond samples lie beyond it
// (choosing-metrics guide, section 1), that is when n >= tailBeyond*k.
var tailLadder = []struct {
	pct float64
	k   int
}{{0.9999, 10000}, {0.999, 1000}, {0.99, 100}, {0.9, 10}, {0.5, 2}}

const tailBeyond = 10

// tailPercentile returns the highest percentile of the ladder, not above
// limit, that has at least ten of n samples beyond it. With fewer than
// twenty samples even the median does not qualify and 0.5 is returned.
func tailPercentile(n int, limit float64) float64 {
	for _, t := range tailLadder {
		if t.pct <= limit && n >= tailBeyond*t.k {
			return t.pct
		}
	}
	return 0.5
}

// lat is a set of latencies in nanoseconds.
type lat []int64

func (l lat) sorted() lat {
	out := append(lat(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile of an already sorted set by linear
// interpolation between ranks; an empty set reads 0.
func (l lat) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	rank := q * float64(len(l)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return float64(l[lo]) + (rank-float64(lo))*float64(l[hi]-l[lo])
}

// summary is a latency set reduced to what the report prints: the median,
// the tail at the percentile the sample count supports, and the count.
type summary struct {
	n       int
	p50     float64 // ns
	tail    float64 // ns
	tailPct float64
}

// summarize reduces l; the tail is read at p99 or, when fewer than 1000
// samples were taken, at the highest percentile the count supports.
func summarize(l lat) summary {
	s := l.sorted()
	pct := tailPercentile(len(s), 0.99)
	return summary{n: len(s), p50: s.quantile(0.5), tail: s.quantile(pct), tailPct: pct}
}

// quantile reads the q-quantile of xs by linear interpolation between
// ranks; an empty set reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secs(d time.Duration) float64 { return d.Seconds() }

// histDelta subtracts an earlier snapshot of the same stage histogram, so a
// stage's numbers cover the measured window and not the warm-up before it.
// The maximum cannot be windowed and keeps the later snapshot's value.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	out := after
	out.Count -= before.Count
	out.Sum -= before.Sum
	for k := range out.Buckets {
		out.Buckets[k] -= before.Buckets[k]
	}
	return out
}

// stageMap indexes a registry snapshot by stage name.
func stageMap(snaps []obs.NamedSnapshot) map[string]obs.HistSnapshot {
	m := make(map[string]obs.HistSnapshot, len(snaps))
	for _, s := range snaps {
		m[s.Name] = s.Snap
	}
	return m
}
