package rpc

import (
	"bytes"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// warmRestart is the one restart fixture: a first server lifetime warms ids
// [0, n) over the wire and checkpoints to a file; a fresh server restores it
// with rehydration and is returned unserved, beside the source its backend
// reads are counted on.
func warmRestart(t *testing.T, n int) (*Server, *storage.DataSource, []dataset.SampleID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.ckpt")
	srv1, addr1, _ := startServer(t)
	ids := warmOverWire(t, dial(t, addr1), n)
	if err := srv1.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newUnstartedServer(t, source)
	t.Cleanup(func() { srv2.Close() })
	loaded, err := srv2.LoadCheckpointFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("checkpoint file not loaded")
	}
	return srv2, source, ids
}

// TestCheckpointWarmRestart: the first client batch after a restore with
// rehydration is served without backend reads.
func TestCheckpointWarmRestart(t *testing.T) {
	spec := testSpec()
	srv2, source, ids := warmRestart(t, 100)
	c2 := dial(t, serveOn(t, srv2))
	rehydrated := source.Reads()
	samples, err := c2.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if delta := source.Reads() - rehydrated; delta != 0 {
		t.Fatalf("warm-restarted server hit the backend %d times", delta)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("substitution on a resident H-sample %d", ids[i])
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("rehydrated payload corrupt: %v", err)
		}
	}
	requireStoreWithinResidents(t, srv2)
}

// raceBuild reports whether this test binary was built with -race. Under the
// race detector sync.Pool drops a share of what is Put on purpose, so the
// pooled scratch is re-allocated now and then and "0 allocs" cannot hold.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHitPathAllocFree: a fully resident batch is served from the frame
// handler down without one heap allocation, whichever way the store got warm
// — by demand fetches, or by rehydration after a restart (where it must not
// read the backend either).
func TestHitPathAllocFree(t *testing.T) {
	const batch = 16
	for _, tc := range []struct {
		name string
		warm func(t *testing.T) (*Server, *storage.DataSource)
	}{
		{"demand-fetched", func(t *testing.T) (*Server, *storage.DataSource) {
			srv, addr, source := startServer(t)
			warmOverWire(t, dial(t, addr), batch)
			return srv, source
		}},
		{"rehydrated", func(t *testing.T) (*Server, *storage.DataSource) {
			srv, source, _ := warmRestart(t, batch)
			srv.policyMu.Lock()
			residents := len(srv.cache.Residents(nil))
			srv.policyMu.Unlock()
			if got := srv.DecisionStats().AdmitRehydrate; got != int64(residents) || residents < batch {
				t.Fatalf("%d rehydrate admissions for %d restored residents (want equal, at least %d)", got, residents, batch)
			}
			return srv, source
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, source := tc.warm(t)
			serve := serveFrom(t, srv, encodeGetBatchRequest(missRange(0, batch)))
			reads, pins := source.Reads(), srv.ServingStats().PayloadPins
			const runs = 200
			allocs := testing.AllocsPerRun(runs, serve)
			if allocs != 0 && !raceBuild() {
				t.Errorf("%v allocs per resident batch, want 0", allocs)
			}
			if delta := source.Reads() - reads; delta != 0 {
				t.Errorf("%d backend reads while serving a resident batch", delta)
			}
			// AllocsPerRun makes one warm-up call before its measured runs.
			if got := srv.ServingStats().PayloadPins - pins; got != (runs+1)*batch {
				t.Errorf("%d payload reads by reference over %d batches of %d, want one per sample", got, runs+1, batch)
			}
			requireStoreWithinResidents(t, srv)
		})
	}
}

// TestRehydrateReadsThroughTheBudget: warm restart overlaps its backend reads
// like any other gather — bounded by the server-wide budget, not serial — and
// the first failed read still aborts the load.
func TestRehydrateReadsThroughTheBudget(t *testing.T) {
	spec := testSpec()
	newServer := func(src ByteSource) *Server {
		srv := newUnstartedServer(t, src)
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := newServer(inner)
	ids := missRange(0, 256)
	var items []sampling.Item
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 3})
	}
	c := dial(t, serveOn(t, warm))
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := warm.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	saved := ckpt.Bytes()

	const latency = 5 * time.Millisecond
	src := &countingSource{inner: inner, latency: latency}
	src.reset()
	srv := newServer(src)
	t0 := time.Now()
	if err := srv.LoadCheckpoint(bytes.NewReader(saved), true); err != nil {
		t.Fatal(err)
	}
	dur := time.Since(t0)
	n := int(srv.DecisionStats().AdmitRehydrate)
	if n < len(ids) {
		t.Fatalf("%d residents rehydrated, want at least the %d H-samples", n, len(ids))
	}
	if serial := time.Duration(n) * latency; dur > serial/4 {
		t.Fatalf("rehydrating %d residents took %v; the serial loop takes at least %v", n, dur, serial)
	}
	if peak, _ := src.marks(); peak <= 1 || peak > backendReadBudget {
		t.Fatalf("rehydration peaked at %d concurrent reads, want 2..%d", peak, backendReadBudget)
	}
	for _, id := range ids {
		if p, ok := srv.payloads.get(id); !ok || spec.VerifyPayload(id, p) != nil {
			t.Fatalf("resident %d has no (or a wrong) payload after rehydration", id)
		}
	}
	requireStoreWithinResidents(t, srv)

	bad := newServer(&faultySource{inner: inner, bad: ids[100], mark: -1, marked: make(chan struct{})})
	err = bad.LoadCheckpoint(bytes.NewReader(saved), true)
	if err == nil || !strings.Contains(err.Error(), "rehydrate sample 100") {
		t.Fatalf("LoadCheckpoint with a failing read = %v, want the rehydrate error of sample 100", err)
	}
	if n := len(bad.readSlots); n != 0 {
		t.Fatalf("%d budget slots held after the aborted load", n)
	}
}

func TestLoadCheckpointFileMissingIsFirstBoot(t *testing.T) {
	srv, _, _ := startServer(t)
	loaded, err := srv.LoadCheckpointFile(filepath.Join(t.TempDir(), "absent.ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded {
		t.Fatal("missing file reported as loaded")
	}
}
