package top

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icache/internal/obs"
)

const promText = `# HELP icache_cache_hits_total requests served from cached copies
# TYPE icache_cache_hits_total counter
icache_cache_hits_total 90
icache_cache_hit_ratio 0.9
icache_overload_gate_state 1
icache_overload_breakers_open 2
icache_prefetch_timeliness_ratio 0.75
icache_evict_capacity_total 40
icache_evict_scrub_total 3
icache_membership_registers_total 1
icache_membership_suspects_total 2
icache_plan_planned 200
icache_plan_completed 150
icache_epoch 5
icache_stage_request_seconds_bucket{le="+Inf"} 100
not-a-metric
`

func TestParseProm(t *testing.T) {
	m, err := ParseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if m["icache_cache_hits_total"] != 90 {
		t.Errorf("hits = %g, want 90", m["icache_cache_hits_total"])
	}
	if m["icache_overload_gate_state"] != 1 {
		t.Errorf("gate = %g, want 1", m["icache_overload_gate_state"])
	}
	if _, ok := m[`icache_stage_request_seconds_bucket{le="+Inf"}`]; ok {
		t.Error("labeled series must be skipped")
	}
	if len(m) != 12 {
		t.Errorf("parsed %d series (%v), want 12", len(m), SortKeys(m))
	}
}

// fakeNode serves a static prom exposition and a two-point timeline.
func fakeNode(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(promText))
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{
  "total": 3,
  "points": [
    {"at_ns": 1000000000, "values": {"requests": 100, "shed": 0}},
    {"at_ns": 2000000000, "values": {"requests": 150, "shed": 10}},
    {"at_ns": 3000000000, "values": {"requests": 250, "shed": 10}}
  ]
}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestRate(t *testing.T) {
	tl := []obs.Point{
		{At: 1e9, Values: map[string]float64{"requests": 100}},
		{At: 3e9, Values: map[string]float64{"requests": 300}},
	}
	if got := rate(tl, "requests", 30); got != 100 {
		t.Errorf("rate = %g, want 100/s", got)
	}
	if got := rate(tl, "absent", 30); got != 0 {
		t.Errorf("absent series rate = %g, want 0", got)
	}
	if got := rate(tl[:1], "requests", 30); got != 0 {
		t.Errorf("single-point rate = %g, want 0", got)
	}
	// Counter reset (restart) clamps to zero instead of going negative.
	reset := []obs.Point{
		{At: 1e9, Values: map[string]float64{"requests": 500}},
		{At: 2e9, Values: map[string]float64{"requests": 10}},
	}
	if got := rate(reset, "requests", 30); got != 0 {
		t.Errorf("reset rate = %g, want 0", got)
	}
}

// TestRenderTwoNodes scrapes a two-node fake cluster plus one dead address
// and checks the rendered table carries each node's overload, breaker and
// membership state — the icache-top -once acceptance path.
func TestRenderTwoNodes(t *testing.T) {
	a, b := fakeNode(t), fakeNode(t)
	views := Collect(http.DefaultClient, []string{a.URL, b.URL, "127.0.0.1:1"})
	var sb strings.Builder
	Render(&sb, views)
	out := sb.String()

	for _, want := range []string{
		a.URL, b.URL, // both nodes rendered
		"brownout",     // overload gate state (gauge 1)
		"capacity(40)", // dominant eviction reason
		"live s2",      // membership: registered, 2 suspect flips
		"0.75",         // prefetch timeliness
		"150/200(-50)", // clairvoyant plan drain progress
		"DOWN",         // unreachable node flagged, not dropped
		"req/s",        // sparkline row from the timeline
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered view lacks %q:\n%s", want, out)
		}
	}
	// Rates come from the node's own timeline: (250-100)/(3s-1s) = 75/s
	// requests, (10-0)/2s = 5/s shed.
	if !strings.Contains(out, "75.0") || !strings.Contains(out, "5.0") {
		t.Errorf("timeline-derived rates missing:\n%s", out)
	}
	// No goodput column: samples served minus frames refused is not goodput.
	if strings.Contains(out, "GOODPUT") {
		t.Errorf("GOODPUT column rendered:\n%s", out)
	}
	// BRK column shows two open breakers.
	if views[0].Metrics["icache_overload_breakers_open"] != 2 {
		t.Error("breaker gauge lost in scrape")
	}
}

func TestPlanProgress(t *testing.T) {
	if got := planProgress(map[string]float64{}); got != "-" {
		t.Errorf("no plan = %q, want -", got)
	}
	if got := planProgress(map[string]float64{"icache_plan_planned": 8, "icache_plan_completed": 3}); got != "3/8(-5)" {
		t.Errorf("mid-drain = %q, want 3/8(-5)", got)
	}
	if got := planProgress(map[string]float64{"icache_plan_planned": 8, "icache_plan_completed": 8}); got != "8/8" {
		t.Errorf("drained = %q, want 8/8", got)
	}
}

func TestSpark(t *testing.T) {
	tl := []obs.Point{
		{At: 1e9, Values: map[string]float64{"requests": 0}},
		{At: 2e9, Values: map[string]float64{"requests": 10}},
		{At: 3e9, Values: map[string]float64{"requests": 10}},
		{At: 4e9, Values: map[string]float64{"requests": 30}},
	}
	s := spark(tl, "requests", 10)
	if runes := []rune(s); len(runes) != 3 {
		t.Fatalf("spark %q has %d cells, want 3", s, len(runes))
	}
	if !strings.ContainsRune(s, sparkRunes[len(sparkRunes)-1]) {
		t.Errorf("spark %q lacks a full cell for the max delta", s)
	}
	if !strings.ContainsRune(s, sparkRunes[0]) {
		t.Errorf("spark %q lacks an empty cell for the zero delta", s)
	}
}
