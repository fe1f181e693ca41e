package obs

import (
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/vt"
)

// TestTimelineWraparound verifies oldest-first ordering across the ring
// boundary: after 10 ticks into a 4-slot ring, the snapshot is ticks 7..10,
// a microsecond of the bubble's clock apart.
func TestTimelineWraparound(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		var n int64
		tl := NewTimeline(4, func() map[string]float64 {
			return map[string]float64{"tick": float64(atomic.AddInt64(&n, 1))}
		})
		for i := 0; i < 10; i++ {
			time.Sleep(time.Microsecond)
			tl.Tick()
		}
		if got := tl.Total(); got != 10 {
			t.Fatalf("Total = %d, want 10", got)
		}
		points := tl.Snapshot()
		if len(points) != 4 {
			t.Fatalf("retained %d points, want 4", len(points))
		}
		for i, p := range points {
			if want := float64(7 + i); p.Values["tick"] != want {
				t.Fatalf("point %d tick = %g, want %g", i, p.Values["tick"], want)
			}
			if i > 0 && points[i].At <= points[i-1].At {
				t.Fatalf("points not oldest-first at %d: %d <= %d", i, points[i].At, points[i-1].At)
			}
		}
	})
}

// TestTimelineConcurrent storms the ring with concurrent Ticks and
// Snapshots; under -race this is the data-race proof. Collectors run
// outside the ring lock, so a collector that itself takes locks cannot
// deadlock against Snapshot.
func TestTimelineConcurrent(t *testing.T) {
	var n int64
	tl := NewTimeline(32, func() map[string]float64 {
		return map[string]float64{"n": float64(atomic.AddInt64(&n, 1))}
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tl.Tick()
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				points := tl.Snapshot()
				for k := 1; k < len(points); k++ {
					if points[k].Values == nil {
						t.Error("snapshot exposed an unwritten point")
						return
					}
				}
				_ = tl.Total()
			}
		}()
	}
	wg.Wait()
	if got := tl.Total(); got != 2000 {
		t.Fatalf("Total = %d, want 2000", got)
	}
}

// TestTimelineNil proves the nil-timeline no-op contract.
func TestTimelineNil(t *testing.T) {
	var tl *Timeline
	tl.Tick()
	tl.Run(time.Millisecond, nil) // returns immediately on nil
	if tl.Total() != 0 || tl.Snapshot() != nil {
		t.Fatal("nil timeline must report zero state")
	}
}

// timelineGolden is the byte-exact /debug/timeline document for the
// collector below, ticked 1 and 2 us past the start of a bubble's clock
// (2000-01-01 00:00 UTC). encoding/json sorts map keys, so the document
// is deterministic; if this golden ever changes, every consumer parsing the
// endpoint (icache-top, dashboards) needs a second look.
const timelineGolden = `{
  "total": 2,
  "points": [
    {
      "at_ns": 946684800000001000,
      "values": {
        "hits": 1,
        "ratio": 0.5
      }
    },
    {
      "at_ns": 946684800000002000,
      "values": {
        "hits": 2,
        "ratio": 0.5
      }
    }
  ]
}
`

// TestTimelineHandlerGolden byte-pins the /debug/timeline JSON document.
func TestTimelineHandlerGolden(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		var n int64
		tl := NewTimeline(8, func() map[string]float64 {
			return map[string]float64{
				"hits":  float64(atomic.AddInt64(&n, 1)),
				"ratio": 0.5,
			}
		})
		time.Sleep(time.Microsecond)
		tl.Tick()
		time.Sleep(time.Microsecond)
		tl.Tick()

		rr := httptest.NewRecorder()
		tl.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline", nil))
		if got := rr.Body.String(); got != timelineGolden {
			t.Fatalf("timeline document drifted:\ngot:\n%s\nwant:\n%s", got, timelineGolden)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
	})
}
