package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestTailPercentile pins the rule the reported tail follows: the highest
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 1, 0.5},         // too few for any tail
		{19, 1, 0.5},        // 19 × 0.5 = 9.5 beyond the median
		{20, 1, 0.5},        // exactly ten beyond the median
		{99, 1, 0.5},        // 99 × 0.1 = 9.9 beyond p90
		{100, 1, 0.9},       // exactly ten beyond p90
		{999, 1, 0.9},       // 9.99 beyond p99
		{1000, 1, 0.99},     // exactly ten beyond p99
		{10000, 1, 0.999},   // ten beyond p99.9
		{100000, 1, 0.9999}, // ten beyond p99.99
		{100000, 0.99, 0.99},
		{500, 0.99, 0.9},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	l := make(lat, 1000)
	for i := range l {
		l[i] = int64(i)
	}
	if s := summarize(l); s.n != 1000 || s.tailPct != 0.99 || s.p50 != 499.5 || math.Abs(s.tail-989.01) > 1e-9 {
		t.Errorf("summarize(0..999) = %+v", s)
	}
}

// contract is the part of BENCHMARK.json the emitted metrics must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json at test scale, untraced
// and traced, and checks that exactly the metrics BENCHMARK.json names come
// out, once each, finite, under a well-formed name and with the listed
// unit — so the benchmark and its contract cannot drift apart unnoticed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadNames))
	}
	probeBudget = 2 * time.Millisecond
	for _, wl := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			rep, err := execute(config{workload: wl.Name, seed: 3, seconds: 0.6, trace: traced, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl.Name, traced, err)
			}
			for _, chk := range rep.checks {
				t.Errorf("%s traced=%t: failed check: %s", wl.Name, traced, chk)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d operations failed", wl.Name, traced, rep.failed, rep.attempted)
			}
			if len(rep.defs) != len(want) || len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics defined, %d emitted, BENCHMARK.json lists %d",
					wl.Name, traced, len(rep.defs), len(rep.metrics), len(want))
			}
			units := map[string]string{}
			for _, d := range rep.defs {
				if _, dup := units[d.name]; dup {
					t.Errorf("metric %s is defined twice", d.name)
				}
				units[d.name] = d.unit
			}
			for _, m := range want {
				v, ok := rep.metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is malformed", m.Name)
				case !ok:
					t.Errorf("%s traced=%t: metric %s is not emitted", wl.Name, traced, m.Name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s traced=%t: metric %s = %v", wl.Name, traced, m.Name, v)
				case units[m.Name] != m.Unit:
					t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, units[m.Name], m.Unit)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, v)
				}
			}
		}
	}
}
