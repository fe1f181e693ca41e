package obs

import (
	"net/http"
	"time"
)

// Timeline is a fixed-window, in-process time-series engine: a ring of
// periodic snapshots of every stats family, taken by a caller-supplied
// collector and served as JSON on /debug/timeline. It exists so a node
// keeps its own recent history — "what did hit ratio do over the last ten
// minutes" — without any external scrape infrastructure; icache-top renders
// it live across a cluster.
//
// Retention math: capacity points at one interval each. The daemons
// default to 600 points at 1s (ten minutes of history, ≈600 × the size of
// one map snapshot ≈ a few hundred KB). Values are float64 so counters and
// gauges share one representation; rates are computed by consumers from
// successive points.
//
// Collectors run outside any Timeline lock, so they may take whatever
// stats locks they need. Points are maps; encoding/json sorts map keys, so
// the rendered document is deterministic for fixed inputs (the byte-pinned
// golden relies on this).

// Point is one timeline snapshot.
type Point struct {
	At     int64              `json:"at_ns"`
	Values map[string]float64 `json:"values"`
}

// Timeline is the snapshot ring. Construct with NewTimeline.
type Timeline struct {
	collect func() map[string]float64
	ring    *Ring[Point]
}

// NewTimeline builds a timeline retaining capacity points (minimum 1),
// each produced by collect.
func NewTimeline(capacity int, collect func() map[string]float64) *Timeline {
	return &Timeline{collect: collect, ring: NewRing[Point](capacity)}
}

// Tick takes one snapshot and appends it to the ring. Safe for concurrent
// use with Snapshot and other Ticks; no-op on a nil timeline.
func (t *Timeline) Tick() {
	if t == nil {
		return
	}
	t.ring.Append(Point{At: time.Now().UnixNano(), Values: t.collect()})
}

// Run ticks every interval until stop closes. Call in a goroutine.
func (t *Timeline) Run(interval time.Duration, stop <-chan struct{}) {
	if t == nil || interval <= 0 {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t.Tick()
		}
	}
}

// Snapshot returns the retained points oldest-first.
func (t *Timeline) Snapshot() []Point {
	if t == nil {
		return nil
	}
	points, _ := t.ring.Snapshot()
	return points
}

// Total reports how many points were ever recorded.
func (t *Timeline) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// timelineDoc is the /debug/timeline JSON document.
type timelineDoc struct {
	Total  uint64  `json:"total"`
	Points []Point `json:"points"`
}

// Handler serves the timeline as JSON on /debug/timeline.
func (t *Timeline) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		points := t.Snapshot()
		if points == nil {
			points = []Point{}
		}
		writeJSON(w, timelineDoc{Total: t.Total(), Points: points})
	})
}
