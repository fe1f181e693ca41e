// Package top implements the scraping and rendering core of cmd/icache-top:
// a cluster-at-a-glance terminal view built from each node's Prometheus
// exposition (/metrics?format=prom) and in-process timeline
// (/debug/timeline). The package is deliberately dependency-free — the
// Prometheus parser handles exactly the subset the servers emit (unlabeled
// counters and gauges) — so the CLI stays stdlib-only.
//
// Rates are derived from the node's own timeline ring rather than from two
// client-side scrapes: the timeline already holds one snapshot per second,
// so even a single poll (-once) can report req/s, shed/s and hit-rate
// deltas over the trailing window.
package top

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"icache/internal/obs"
)

// ParseProm reads a Prometheus text exposition and returns the flat
// name→value map of every unlabeled sample. Comment lines (#) and labeled
// series (anything with a '{') are skipped — the icache servers emit only
// flat families, and histogram buckets from obs.Registry carry labels, so
// skipping them keeps the map unambiguous.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.ContainsRune(line, '{') {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	return out, sc.Err()
}

// timelineDoc mirrors the JSON served by obs.Timeline.Handler.
type timelineDoc struct {
	Total  uint64      `json:"total"`
	Points []obs.Point `json:"points"`
}

// View is one node's scraped state: the flat metric map plus the decoded
// timeline. Err is set (and the rest zero) when the node was unreachable.
type View struct {
	Name     string
	Err      error
	Metrics  map[string]float64
	Timeline []obs.Point
}

// baseURL normalizes a node address: "host:port" becomes "http://host:port",
// full URLs pass through.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// fetch GETs url and hands the body to decode.
func fetch(c *http.Client, url string, decode func(io.Reader) error) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return decode(resp.Body)
}

// Scrape polls one node's /metrics?format=prom and /debug/timeline. A
// missing timeline endpoint (older node, or a dkv replica without
// -debug-addr) is not an error — rates just read 0.
func Scrape(c *http.Client, addr string) View {
	v := View{Name: addr}
	base := baseURL(addr)
	err := fetch(c, base+"/metrics?format=prom", func(r io.Reader) error {
		m, err := ParseProm(r)
		v.Metrics = m
		return err
	})
	if err != nil {
		v.Err = err
		return v
	}
	_ = fetch(c, base+"/debug/timeline", func(r io.Reader) error {
		var doc timelineDoc
		if err := json.NewDecoder(r).Decode(&doc); err != nil {
			return err
		}
		v.Timeline = doc.Points
		return nil
	})
	return v
}

// Collect scrapes every node serially (the node count is small and the
// endpoints are local-network fast).
func Collect(c *http.Client, nodes []string) []View {
	out := make([]View, len(nodes))
	for i, n := range nodes {
		out[i] = Scrape(c, n)
	}
	return out
}

// rate computes key's per-second growth over the trailing window of the
// timeline (up to maxPoints points). It returns 0 when the window is too
// short or time stood still; negative deltas (counter reset after restart)
// clamp to 0.
func rate(tl []obs.Point, key string, maxPoints int) float64 {
	if len(tl) < 2 {
		return 0
	}
	start := 0
	if len(tl) > maxPoints {
		start = len(tl) - maxPoints
	}
	first, last := tl[start], tl[len(tl)-1]
	dt := float64(last.At-first.At) / 1e9
	if dt <= 0 {
		return 0
	}
	d := last.Values[key] - first.Values[key]
	if d < 0 {
		return 0
	}
	return d / dt
}

// gateName renders the 0/1/2 admission-ladder gauge.
func gateName(v float64) string {
	switch int(v) {
	case 1:
		return "brownout"
	case 2:
		return "shed"
	default:
		return "normal"
	}
}

// topEviction names the largest reason-coded eviction counter, e.g.
// "capacity(142)". All-zero renders as "-".
func topEviction(m map[string]float64) string {
	reasons := []struct{ name, key string }{
		{"capacity", "icache_evict_capacity_total"},
		{"dead-owner", "icache_evict_dead_owner_total"},
		{"scrub", "icache_evict_scrub_total"},
		{"ckpt-denied", "icache_evict_checkpoint_denied_total"},
		{"dir-unavailable", "icache_evict_dir_unavailable_total"},
	}
	best, bestV := "-", 0.0
	for _, r := range reasons {
		if v := m[r.key]; v > bestV {
			best, bestV = r.name, v
		}
	}
	if bestV == 0 {
		return "-"
	}
	return fmt.Sprintf("%s(%.0f)", best, bestV)
}

// membership summarizes a node's lease-membership activity from its own
// counters: "static" when it never registered (legacy static membership),
// otherwise "live" plus any observed suspect/death transitions.
func membership(m map[string]float64) string {
	if m["icache_membership_registers_total"] == 0 {
		return "static"
	}
	s := "live"
	if v := m["icache_membership_suspects_total"]; v > 0 {
		s += fmt.Sprintf(" s%.0f", v)
	}
	if v := m["icache_membership_deaths_total"]; v > 0 {
		s += fmt.Sprintf(" d%.0f", v)
	}
	return s
}

// sparkRunes back spark(); index scales with the normalized value.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders key's per-tick deltas over the trailing window as a
// mini-chart, normalized to the window's own maximum.
func spark(tl []obs.Point, key string, width int) string {
	if len(tl) < 2 || width <= 0 {
		return ""
	}
	start := 0
	if len(tl) > width+1 {
		start = len(tl) - width - 1
	}
	deltas := make([]float64, 0, width)
	max := 0.0
	for i := start + 1; i < len(tl); i++ {
		d := tl[i].Values[key] - tl[i-1].Values[key]
		if d < 0 {
			d = 0
		}
		deltas = append(deltas, d)
		if d > max {
			max = d
		}
	}
	var b strings.Builder
	for _, d := range deltas {
		idx := 0
		if max > 0 {
			idx = int(d / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// planProgress renders the clairvoyant plan's drain progress as
// "completed/planned" with the remainder in parentheses, or "-" when the
// node has no plan queued (no client sent one, or nothing missing this epoch).
func planProgress(m map[string]float64) string {
	planned := m["icache_plan_planned"]
	if planned == 0 {
		return "-"
	}
	completed := m["icache_plan_completed"]
	if rem := planned - completed; rem > 0 {
		return fmt.Sprintf("%.0f/%.0f(-%.0f)", completed, planned, rem)
	}
	return fmt.Sprintf("%.0f/%.0f", completed, planned)
}

// Render writes the cluster table: one row per node with request/hit/shed
// rates (from the node's timeline), overload-gate and breaker state,
// prefetch timeliness, clairvoyant plan progress, the dominant
// eviction reason, membership summary and epoch, followed by a req/s
// sparkline per node.
func Render(w io.Writer, views []View) {
	tw := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	tw("%-22s %8s %6s %8s %-9s %4s %7s %-13s %-16s %-10s %5s",
		"NODE", "REQ/S", "HIT%", "SHED/S", "GATE", "BRK", "PF-TIME", "PLAN", "TOP-EVICT", "MEMBER", "EPOCH")
	for _, v := range views {
		if v.Err != nil {
			tw("%-22s DOWN: %v", v.Name, v.Err)
			continue
		}
		m := v.Metrics
		tw("%-22s %8.1f %6.1f %8.1f %-9s %4.0f %7.2f %-13s %-16s %-10s %5.0f",
			v.Name,
			rate(v.Timeline, "requests", 30),
			m["icache_cache_hit_ratio"]*100,
			rate(v.Timeline, "shed", 30),
			gateName(m["icache_overload_gate_state"]),
			m["icache_overload_breakers_open"],
			m["icache_prefetch_timeliness_ratio"],
			planProgress(m),
			topEviction(m),
			membership(m),
			m["icache_epoch"],
		)
	}
	for _, v := range views {
		if v.Err != nil || len(v.Timeline) < 2 {
			continue
		}
		tw("%-22s req/s %s", v.Name, spark(v.Timeline, "requests", 30))
	}
}

// SortKeys returns m's keys sorted — a test helper for stable diffing of
// parsed expositions.
func SortKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
