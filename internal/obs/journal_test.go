package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestJournalConcurrentWriters hammers the journal from many writers while
// readers snapshot-storm it; run under -race this is the data-race proof,
// and the accounting identities must hold afterwards: Total == events
// appended and Dropped == Total - retained. (Snapshot order under
// concurrent appends is the ring's to keep: TestRing.)
func TestJournalConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	j := NewJournal(256)
	var readers, wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot storm: readers iterate while writers append.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = j.Snapshot()
				_ = j.Dropped()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.AddTraced(EventGate, int64(w), 0, 1, "normal→brownout", uint64(i))
			}
		}(w)
	}
	wg.Wait() // the writers; then stop the readers
	close(stop)
	readers.Wait()

	if got, want := j.Total(), uint64(writers*perWriter); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	retained := len(j.Snapshot())
	if got, want := j.Dropped(), j.Total()-uint64(retained); got != want {
		t.Fatalf("Dropped = %d, want Total-retained = %d", got, want)
	}
	if retained == 0 || retained > 256 {
		t.Fatalf("retained %d events, want (0, 256]", retained)
	}
}

// TestJournalWraparound verifies the ring keeps the newest events and
// reports the overwritten remainder as Dropped.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(16)
	const n = 100
	for i := 0; i < n; i++ {
		j.Add(EventEpoch, 1, int64(i), int64(i+1), "epoch boundary")
	}
	events := j.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want 16", len(events))
	}
	if got, want := j.Dropped(), uint64(n-16); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	// Every retained event must be one of the last 16 sequence numbers.
	for _, e := range events {
		if e.Seq <= n-16 {
			t.Fatalf("retained stale seq %d (oldest expected > %d)", e.Seq, n-16)
		}
	}
}

// TestJournalNil proves the nil-journal no-op contract call sites rely on.
func TestJournalNil(t *testing.T) {
	var j *Journal
	j.Add(EventGate, 0, 0, 0, "ignored")
	j.AddTraced(EventBreaker, 0, 0, 0, "ignored", 7)
	if j.Total() != 0 || j.Dropped() != 0 || j.Snapshot() != nil {
		t.Fatal("nil journal must report zero state")
	}
}

// TestJournalHandler checks the /debug/journal document shape: kind strings
// resolved, totals consistent, exemplars attached.
func TestJournalHandler(t *testing.T) {
	j := NewJournal(64)
	j.Add(EventGate, 0, 0, 2, "normal→shed")
	j.AddTraced(EventBreaker, 3, 0, 1, "peer breaker closed→open", 0xabc)

	ex := &Exemplars{}
	ex.Record(5*time.Millisecond, 0xdead)
	ex.Record(0, 0) // untraced: ignored

	rr := httptest.NewRecorder()
	j.Handler(ex).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/journal", nil))
	var doc struct {
		Total     uint64  `json:"total"`
		Dropped   uint64  `json:"dropped"`
		Events    []Event `json:"events"`
		Exemplars []BucketExemplar
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Total != 2 || doc.Dropped != 0 || len(doc.Events) != 2 {
		t.Fatalf("doc totals = (%d, %d, %d events), want (2, 0, 2)", doc.Total, doc.Dropped, len(doc.Events))
	}
	if doc.Events[0].KindS != "gate" || doc.Events[1].KindS != "breaker" {
		t.Fatalf("kinds = %q, %q", doc.Events[0].KindS, doc.Events[1].KindS)
	}
	if doc.Events[1].Trace != 0xabc {
		t.Fatalf("trace exemplar = %#x, want 0xabc", doc.Events[1].Trace)
	}
	if len(doc.Exemplars) != 1 || doc.Exemplars[0].Trace != 0xdead {
		t.Fatalf("exemplars = %+v, want one with trace 0xdead", doc.Exemplars)
	}
}

// TestExemplarsConcurrent exercises the lock-free slots under -race.
func TestExemplarsConcurrent(t *testing.T) {
	ex := &Exemplars{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ex.Record(time.Duration(i)*time.Microsecond, uint64(w*1000+i+1))
				_ = ex.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if len(ex.Snapshot()) == 0 {
		t.Fatal("no exemplars recorded")
	}
}
