package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, KindHit, 1, 0) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 5; i++ {
		r.Record(time.Duration(i), KindHit, 0, int64(i))
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("len = %d", len(snap))
	}
	for i, e := range snap {
		if e.Arg != int64(i) {
			t.Fatalf("order wrong: %v", snap)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(time.Duration(i), KindMiss, 0, int64(i))
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d, want capacity 3", len(snap))
	}
	if snap[0].Arg != 4 || snap[2].Arg != 6 {
		t.Fatalf("ring kept wrong window: %v", snap)
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d, want 7", r.Total())
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestCounts(t *testing.T) {
	r := NewRecorder(16)
	r.Record(0, KindHit, 1, 0)
	r.Record(0, KindHit, 2, 0)
	r.Record(0, KindEvict, 3, 0)
	c := r.Counts()
	if c[KindHit] != 2 || c[KindEvict] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(4)
	r.Record(time.Millisecond, KindSubstitute, 7, 42)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "at_ns,kind,id,arg") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "1000000,substitute,7,42") {
		t.Fatalf("row missing:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindHit, KindMiss, KindSubstitute, KindAdmit, KindEvict, KindPackage, KindRefresh, KindEpoch}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind not diagnosable")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(0, KindHit, 1, 1)
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("Total = %d, want 800", r.Total())
	}
}

func TestNewRecorderZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

// TestRecorderDropped pins Dropped: 0 until the ring wraps, total − capacity
// after, and — read beside concurrent writers — never above Total (the
// two-lock Total()−Len() it replaces wrapped to 1.8e19 there).
func TestRecorderDropped(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 9; i++ {
		if d := r.Dropped(); d != 0 {
			t.Fatalf("Dropped = %d after %d events in 8 slots", d, i)
		}
		r.RecordSpan(0, KindRPCRecv, 0, 0, 1, 0, 0)
	}
	if d := r.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d after 9 events in 8 slots, want 1", d)
	}

	r = NewRecorder(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				r.RecordSpan(0, KindRPCSend, 0, 0, 1, 0, 0)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if d := r.Dropped(); d > r.Total() {
			t.Fatalf("Dropped = %d above Total", d)
		}
	}
	wg.Wait()
}
