package experiments

import (
	"strings"
	"testing"
)

// TestExtPoliciesShape asserts the policy spread: recency ~2%, iCache on
// top.
func TestExtPoliciesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs take seconds")
	}
	rep, err := Run("ext-policies", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]float64{}
	for _, row := range rep.Rows {
		hit[row[0]] = parsePct(t, row[1+1])
	}
	if hit["lru"] > 0.06 || hit["fifo"] > 0.06 {
		t.Errorf("recency policies not starved: lru=%.3f fifo=%.3f", hit["lru"], hit["fifo"])
	}
	for _, p := range []string{"fifo", "lru", "clock", "lfu"} {
		if hit["icache"] <= hit[p] {
			t.Errorf("icache hit %.3f not above %s %.3f", hit["icache"], p, hit[p])
		}
	}
}

// TestExtSeedsTight asserts run-to-run stability of the headline.
func TestExtSeedsTight(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs take seconds")
	}
	rep, err := Run("ext-seeds", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var speedups []float64
	for _, row := range rep.Rows {
		if strings.HasSuffix(row[3], "x") && !strings.Contains(row[3], "±") {
			speedups = append(speedups, parseX(t, row[3]))
		}
	}
	if len(speedups) < 3 {
		t.Fatalf("only %d per-seed rows", len(speedups))
	}
	min, max := speedups[0], speedups[0]
	for _, s := range speedups {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 0.3 {
		t.Errorf("speedup spread %.2f–%.2f too wide", min, max)
	}
	if min < 1.7 {
		t.Errorf("worst-seed speedup %.2f below 1.7", min)
	}
}
