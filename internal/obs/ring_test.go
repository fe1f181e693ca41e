package obs_test

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/trace"
)

// TestRing pins the one bounded ring the trace recorder, the journal and the
// timeline are built on: oldest-first snapshots that keep the newest entries
// across wraparound, Dropped == Total − Len within every reading, append
// order under concurrent writers and readers (run under -race), and the
// owners' nil-safety and CSV dump on top of it.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"capacity 1", wraps(1)},
		{"capacity 2", wraps(2)},
		{"capacity 1024", wraps(1024)},
		{"concurrent append and snapshot", concurrentAppend},
		{"nil owners are inert", nilOwners},
		{"WriteCSVLimited(w, 0) writes what WriteCSV writes", csvUnlimited},
	} {
		t.Run(tc.name, tc.run)
	}
}

// wraps appends 1, 2, … to a ring of capacity n until it has wrapped three
// times, checking after every append that the snapshot is the newest
// min(total, n) values oldest-first and that the counters agree with it.
func wraps(n int) func(t *testing.T) {
	return func(t *testing.T) {
		r := obs.NewRing[int](n)
		if got, dropped := r.Snapshot(); got != nil || dropped != 0 {
			t.Fatalf("empty ring: snapshot %v, dropped %d", got, dropped)
		}
		for total := 1; total <= 3*n+1; total++ {
			r.Append(total)
			retained := min(total, n)
			got, dropped := r.Snapshot()
			if len(got) != retained || int(dropped) != total-retained {
				t.Fatalf("after %d appends: %d retained, %d dropped; want %d and %d", total, len(got), dropped, retained, total-retained)
			}
			for i, v := range got {
				if v != total-retained+i+1 {
					t.Fatalf("after %d appends: entry %d is %d, want %d", total, i, v, total-retained+i+1)
				}
			}
			if r.Len() != retained || r.Total() != uint64(total) || r.Dropped() != uint64(total-retained) {
				t.Fatalf("after %d appends: Len %d, Total %d, Dropped %d", total, r.Len(), r.Total(), r.Dropped())
			}
		}
	}
}

// concurrentAppend storms a small ring with writers while readers snapshot
// it: every snapshot holds each writer's entries in the order it appended
// them, a ring that has dropped anything is full, and what one reader sees
// retained plus dropped never goes backwards.
func concurrentAppend(t *testing.T) {
	const capacity, writers, perWriter = 64, 8, 2000
	type entry struct{ w, i int }
	r := obs.NewRing[entry](capacity)
	var readers, wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 4; k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var seen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, dropped := r.Snapshot()
				if dropped > 0 && len(got) != capacity {
					t.Errorf("%d dropped but %d of %d slots retained", dropped, len(got), capacity)
					return
				}
				n := dropped + uint64(len(got))
				if n < seen {
					t.Errorf("snapshot went backwards: %d appends after %d", n, seen)
					return
				}
				seen = n
				last := make([]int, writers)
				for _, e := range got {
					if e.i < last[e.w] {
						t.Errorf("writer %d's entry %d after its entry %d", e.w, e.i, last[e.w])
						return
					}
					last[e.w] = e.i + 1
				}
				if d, tot := r.Dropped(), r.Total(); d > tot {
					t.Errorf("Dropped %d above Total %d", d, tot)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(entry{w, i})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Total() != writers*perWriter || r.Len() != capacity || r.Dropped() != writers*perWriter-capacity {
		t.Fatalf("Total %d, Len %d, Dropped %d; want %d, %d, %d",
			r.Total(), r.Len(), r.Dropped(), writers*perWriter, capacity, writers*perWriter-capacity)
	}
}

// nilOwners: a nil recorder, journal and timeline accept every call and
// report zero state, so call sites need no conditionals.
func nilOwners(t *testing.T) {
	var rec *trace.Recorder
	rec.Record(0, trace.KindHit, 1, 0)
	rec.RecordSpan(0, trace.KindRPCSend, 1, 0, 7, 0, time.Millisecond)
	var sb strings.Builder
	if cut, err := rec.WriteCSVLimited(&sb, 64); err != nil || cut != 0 || sb.String() != "at_ns,kind,id,arg,trace,hop,dur_ns\n" {
		t.Errorf("nil recorder dump: cut %d, err %v, %q", cut, err, sb.String())
	}
	if rec.Len() != 0 || rec.Total() != 0 || rec.Dropped() != 0 || rec.Snapshot() != nil {
		t.Error("nil recorder reports state")
	}
	var j *obs.Journal
	j.Add(obs.EventGate, 0, 0, 1, "ignored")
	j.AddTraced(obs.EventBreaker, 0, 0, 1, "ignored", 7)
	if j.Total() != 0 || j.Dropped() != 0 || j.Snapshot() != nil {
		t.Error("nil journal reports state")
	}
	var tl *obs.Timeline
	tl.Tick()
	if tl.Total() != 0 || tl.Snapshot() != nil {
		t.Error("nil timeline reports state")
	}
}

// csvUnlimited: a budget of zero (or less) is no budget — the dump is
// WriteCSV's, byte for byte, across a wrapped ring of classic and span
// events.
func csvUnlimited(t *testing.T) {
	r := trace.NewRecorder(4)
	r.Record(time.Millisecond, trace.KindSubstitute, 7, 42)
	r.Record(2*time.Millisecond, trace.KindMiss, 8, 0)
	r.RecordSpan(3*time.Millisecond, trace.KindRPCSend, 9, 4, 0xbeef, 1, 250*time.Microsecond)
	r.Record(4*time.Millisecond, trace.KindEvict, 10, 0)
	r.RecordSpan(5*time.Millisecond, trace.KindBackend, 11, 0, 0xbeef, 2, time.Millisecond)
	var want strings.Builder
	if err := r.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, -1} {
		var got strings.Builder
		cut, err := r.WriteCSVLimited(&got, budget)
		if err != nil || cut != 0 || got.String() != want.String() {
			t.Fatalf("WriteCSVLimited(w, %d): cut %d, err %v\n%s\nWriteCSV:\n%s", budget, cut, err, got.String(), want.String())
		}
	}
	if rows := strings.Split(strings.TrimSpace(want.String()), "\n"); len(rows) != 5 || !slices.Contains(rows, "5000000,backend,11,0,beef,2,1000000") {
		t.Fatalf("dump of a wrapped 4-slot ring:\n%s", want.String())
	}
}
