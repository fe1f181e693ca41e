package icache

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// warmServer trains a few epochs so both regions have content.
func warmServer(t *testing.T) (*Server, *storage.Backend) {
	t.Helper()
	back := testBackend(t)
	srv := testServer(t, back)
	tr := trainedTracker(t, back.Spec().NumSamples, 3)
	rng := rand.New(rand.NewSource(4))
	var at simclock.Time
	for e := 0; e < 3; e++ {
		sched := srv.BeginEpoch(at, e, tr, rng)
		for _, batch := range sched.Batches(256) {
			at, _ = srv.FetchBatch(at, batch)
		}
	}
	return srv, back
}

func residentSet(s *Server) map[dataset.SampleID]bool {
	out := map[dataset.SampleID]bool{}
	for _, id := range s.Residents(nil) {
		out[id] = true
	}
	return out
}

// TestCheckpointAndResidentsAreDeterministic: one state writes one file and
// lists its residents in one order, whatever order the regions' maps iterate
// in — a restore inserts in file order (L-cache arrival order is eviction
// order), and the scrub watermark indexes into the resident list.
func TestCheckpointAndResidentsAreDeterministic(t *testing.T) {
	srv, _ := warmServer(t)
	var a, b bytes.Buffer
	if err := srv.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two checkpoints of one state differ")
	}
	ids := srv.Residents([]dataset.SampleID{1 << 40})
	v := srv.View()
	if ids[0] != 1<<40 || len(ids) != 1+v.HLen+v.LLen || !slices.IsSorted(ids[1:]) {
		t.Errorf("Residents did not append %d ascending ids after dst's own", v.HLen+v.LLen)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	srv, _ := warmServer(t)
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	back2 := testBackend(t)
	restored := testServer(t, back2)
	if err := restored.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	if got, want := restored.View().HLen, srv.View().HLen; got != want {
		t.Fatalf("H residents %d, want %d", got, want)
	}
	if got, want := restored.View().LLen, srv.View().LLen; got != want {
		t.Fatalf("L residents %d, want %d", got, want)
	}
	want := srv.Residents(nil)
	got := restored.Residents(nil)
	if len(want) != len(got) {
		t.Fatalf("resident counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resident sets diverge at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// The restored H-list must match too.
	if restored.ActiveHList().Len() != srv.ActiveHList().Len() {
		t.Fatal("H-list length differs after restore")
	}
}

func TestRestoredCacheServesHits(t *testing.T) {
	srv, _ := warmServer(t)
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	back2 := testBackend(t)
	restored := testServer(t, back2)
	if err := restored.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Requesting resident H-samples must hit without backend reads.
	var ids []dataset.SampleID
	for _, it := range restored.ActiveHList().Items {
		if restored.h.contains(it.ID) {
			ids = append(ids, it.ID)
		}
		if len(ids) == 64 {
			break
		}
	}
	if len(ids) == 0 {
		t.Fatal("no resident H-samples after restore")
	}
	before := back2.Stats().SampleReads
	restored.FetchBatch(0, ids)
	if delta := back2.Stats().SampleReads - before; delta != 0 {
		t.Fatalf("restored cache went to backend %d times for resident samples", delta)
	}
}

func TestRestoreRejectsWrongDataset(t *testing.T) {
	srv, _ := warmServer(t)
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := dataset.Spec{Name: "other", NumSamples: 100, MeanSampleBytes: 1000, Seed: 1}
	back, err := storage.NewBackend(other, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(back, DefaultConfig(other.TotalBytes()/5), sampling.DefaultIIS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "dataset") {
		t.Fatalf("wrong-dataset restore: err = %v", err)
	}
}

func TestRestoreRejectsNonEmptyCache(t *testing.T) {
	srv, _ := warmServer(t)
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.RestoreCheckpoint(&buf); err == nil {
		t.Fatal("restore into live cache succeeded")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	back := testBackend(t)
	srv := testServer(t, back)
	if err := srv.RestoreCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	if err := srv.RestoreCheckpoint(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if err := srv.RestoreCheckpoint(strings.NewReader(`{"version":1,"dataset":"ic","h_residents":[{"id":999999999,"iv":1}]}`)); err == nil {
		t.Fatal("out-of-range resident accepted")
	}
}

func TestRestoreIntoSmallerCacheDrops(t *testing.T) {
	srv, _ := warmServer(t)
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	back2 := testBackend(t)
	cfg := DefaultConfig(back2.Spec().TotalBytes() / 20) // 4× smaller
	small, err := NewServer(back2, cfg, sampling.DefaultIIS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if small.h.used > small.h.capBytes || small.l.used > small.l.capBytes {
		t.Fatal("restore overflowed the smaller budgets")
	}
	if small.View().HLen == 0 {
		t.Fatal("smaller cache restored nothing")
	}
}
