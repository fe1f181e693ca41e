package trace

import (
	"errors"
	"os"
	"path/filepath"
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

func dumpRecorder(n int, arg0 int64) *Recorder {
	r := NewRecorder(64)
	for i := 0; i < n; i++ {
		r.Record(time.Duration(i), KindHit, 1, arg0+int64(i))
	}
	return r
}

func readDump(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// A second dump to one path moves the first to <path>.1; neither is lost.
func TestDumpFileRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	for _, arg0 := range []int64{100, 200} {
		if _, err := dumpRecorder(3, arg0).DumpFile(path, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := readDump(t, path); len(got) != 3 || got[0].Arg != 200 {
		t.Fatalf("%s holds %v, want the second dump", path, got)
	}
	if got := readDump(t, path+".1"); len(got) != 3 || got[0].Arg != 100 {
		t.Fatalf("%s.1 holds %v, want the first dump", path, got)
	}
}

// Under a size cap the file keeps the newest events, and the count of the
// cut ones is returned.
func TestDumpFileCapKeepsNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	r := dumpRecorder(40, 0)
	cut, err := r.DumpFile(path, 200)
	if err != nil {
		t.Fatal(err)
	}
	got := readDump(t, path)
	if cut == 0 || cut+len(got) != 40 {
		t.Fatalf("cut %d and kept %d of 40 events", cut, len(got))
	}
	if fi, _ := os.Stat(path); fi.Size() > 200 {
		t.Fatalf("dump is %d bytes over a 200-byte cap", fi.Size())
	}
	for i, e := range got {
		if e.Arg != int64(cut+i) {
			t.Fatalf("kept event %d has arg %d, want the newest suffix from %d", i, e.Arg, cut)
		}
	}
}

// failingFile is a dump file whose Write or Close fails.
type failingFile struct{ writeErr, closeErr error }

func (f failingFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return len(p), nil
}

func (f failingFile) Close() error { return f.closeErr }

// A dump that did not reach its file whole reports an error, never success:
// the create, a write or the close failed.
func TestDumpFileReportsFailure(t *testing.T) {
	r := dumpRecorder(3, 0)
	if _, err := r.DumpFile(filepath.Join(t.TempDir(), "missing", "trace.csv"), 0); err == nil {
		t.Error("create in a missing directory: nil error")
	}
	boom := errors.New("boom")
	for name, f := range map[string]failingFile{
		"write": {writeErr: boom},
		"close": {closeErr: boom},
	} {
		if _, err := r.writeClose(f, 0); !errors.Is(err, boom) {
			t.Errorf("failed %s: err %v, want %v", name, err, boom)
		}
	}
}
