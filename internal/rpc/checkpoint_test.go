package rpc

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func TestCheckpointWarmRestart(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "cache.ckpt")

	// First server lifetime: warm the cache over the wire, checkpoint.
	srv1, addr1, _ := startServer(t)
	c1 := dial(t, addr1)
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 100; id++ {
		items = append(items, sampling.Item{ID: id, IV: 3})
		ids = append(ids, id)
	}
	if err := c1.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := srv1.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: fresh server, restore with rehydration; the first
	// client batch must be served without backend reads.
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 9)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(cacheSrv, source)
	srv2.Logf = nil
	loaded, err := srv2.LoadCheckpointFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("checkpoint file not loaded")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	defer srv2.Close()

	c2, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
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
}

// TestRehydrateReadsThroughTheBudget: warm restart overlaps its backend reads
// like any other gather — bounded by the server-wide budget, not serial — and
// the first failed read still aborts the load.
func TestRehydrateReadsThroughTheBudget(t *testing.T) {
	spec := testSpec()
	newServer := func(src ByteSource) *Server {
		srv := newUnstartedServer(t, src, 0)
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
