package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"icache/internal/dataset"
)

// pattern fills a payload with a byte pattern derived from the id and a
// generation, so a read of bytes some writer reused is detected as
// corruption, not just by the race detector.
func pattern(id dataset.SampleID, gen byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(id)*31+i) ^ gen
	}
	return b
}

// patternIntact reports whether b is pattern(id, g, n) for the one generation
// g its first byte names.
func patternIntact(id dataset.SampleID, b []byte, n int) bool {
	return len(b) == n && bytes.Equal(b, pattern(id, b[0]^byte(int(id)*31), n))
}

// requireStoreWithinResidents checks the store ↔ policy-engine consistency
// admit promises: every payload in the store belongs to a sample the policy
// engine holds resident. Both views are read under policyMu, which every
// insert and every eviction's delete holds, so it is exact at any instant.
func requireStoreWithinResidents(t *testing.T, srv *Server) {
	t.Helper()
	srv.policyMu.Lock()
	defer srv.policyMu.Unlock()
	resident := make(map[dataset.SampleID]bool)
	for _, id := range srv.cache.Residents(nil) {
		resident[id] = true
	}
	for _, id := range srv.payloads.ids() {
		if !resident[id] {
			t.Errorf("payload of sample %d is stored but the policy engine does not hold it resident", id)
		}
	}
}

func TestStoreZeroLengthPayload(t *testing.T) {
	p := newPayloadStore()
	for id, empty := range [][]byte{nil, {}} {
		id := dataset.SampleID(id)
		p.put(id, empty)
		if b, ok := p.get(id); !ok || len(b) != 0 {
			t.Fatalf("zero-length entry: b=%v ok=%v, want present and empty", b, ok)
		}
		if !p.has(id) {
			t.Fatal("zero-length entry not present")
		}
		p.delete(id)
		if p.has(id) {
			t.Fatal("zero-length entry survived delete")
		}
	}
}

func TestStoreOverwriteReplacesEntry(t *testing.T) {
	p := newPayloadStore()
	id := dataset.SampleID(9)
	p.put(id, pattern(id, 1, 512))
	held, _ := p.get(id)
	want := pattern(id, 2, 900)
	p.put(id, want)
	if b, ok := p.get(id); !ok || !bytes.Equal(b, want) {
		t.Fatal("overwrite did not replace the payload")
	}
	if !bytes.Equal(held, pattern(id, 1, 512)) {
		t.Fatal("overwrite changed the bytes a reader already held")
	}
	if n := p.len(); n != 1 {
		t.Fatalf("store holds %d entries after overwrite, want 1", n)
	}
	if got := p.liveBytes.Load(); got != 900 {
		t.Fatalf("liveBytes %d after overwrite, want 900", got)
	}
}

// TestStoreAdoptAliases: put must not copy — the stored bytes ARE the
// caller's slice and get hands back the same backing array — and the stored
// slice is capacity-clipped, so an append by a holder cannot write into bytes
// the fetch buffer (or the store) still shares.
func TestStoreAdoptAliases(t *testing.T) {
	p := newPayloadStore()
	id := dataset.SampleID(11)
	buf := pattern(id, 1, 4096)
	p.put(id, buf[:1024]) // a fetch buffer with spare capacity behind the payload
	got, ok := p.get(id)
	if !ok || len(got) != 1024 || &got[0] != &buf[0] {
		t.Fatal("put copied the payload")
	}
	if cap(got) != len(got) {
		t.Fatalf("stored slice has capacity %d beyond its %d bytes", cap(got), len(got))
	}
	_ = append(got, 0xEE)
	if !bytes.Equal(buf, pattern(id, 1, 4096)) {
		t.Fatal("append to a stored slice wrote into the caller's buffer")
	}
	if again, _ := p.get(id); !bytes.Equal(again, pattern(id, 1, 1024)) {
		t.Fatal("append to a returned slice changed the stored payload")
	}
}

// heldRead is a slice a storm reader obtained by get and keeps past its
// entry's deletion and replacement.
type heldRead struct {
	id dataset.SampleID
	b  []byte
}

// TestStoreEvictionReadStorm is the -race lifecycle test: readers take
// payloads by reference and keep them while writers evict and re-admit the
// same ids under new generations. Nothing is recycled, so every held slice
// must still verify byte-for-byte, against the generation it was read under,
// long after its entry was deleted and replaced. The property is first
// scripted, once per way an entry goes, so it is exercised however the
// scheduler runs the storm's goroutines.
func TestStoreEvictionReadStorm(t *testing.T) {
	p := newPayloadStore()
	const (
		keys    = 64
		writers = 4
		readers = 8
		rounds  = 400
		hold    = 32 // reads a reader keeps before re-verifying the oldest
	)
	size := func(id dataset.SampleID) int { return 700 + int(id) }
	gens := make([]int64, keys)
	for id := dataset.SampleID(0); id < keys; id++ {
		gens[id] = 1
		p.put(id, pattern(id, 1, size(id)))
	}

	for i, drop := range []func(dataset.SampleID){
		func(id dataset.SampleID) { gens[id]++; p.put(id, pattern(id, byte(gens[id]), size(id))) }, // replace
		p.delete, // evict
	} {
		id := dataset.SampleID(i)
		held, _ := p.get(id)
		drop(id)
		if cur, ok := p.get(id); ok && &cur[0] == &held[0] {
			t.Fatalf("sample %d: the store still hands out the held slice", id)
		}
		if !bytes.Equal(held, pattern(id, 1, size(id))) {
			t.Fatalf("sample %d: a held slice changed when its entry went", id)
		}
	}

	var wg sync.WaitGroup
	var corrupt int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for r := 0; r < rounds; r++ {
				id := dataset.SampleID(rng.Intn(keys))
				if rng.Intn(3) == 0 {
					p.delete(id) // evict
					continue
				}
				g := byte(atomic.AddInt64(&gens[id], 1)) // re-admit, new generation
				p.put(id, pattern(id, g, size(id)))
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(rd) + 900))
			var ring [hold]heldRead
			verify := func(h heldRead) {
				if h.b == nil {
					return
				}
				if !patternIntact(h.id, h.b, size(h.id)) {
					atomic.AddInt64(&corrupt, 1)
				}
			}
			for r := 0; r < rounds*2; r++ {
				id := dataset.SampleID(rng.Intn(keys))
				b, ok := p.get(id)
				if !ok {
					continue
				}
				if !patternIntact(id, b, size(id)) {
					atomic.AddInt64(&corrupt, 1)
				}
				verify(ring[r%hold]) // held since `hold` reads ago
				ring[r%hold] = heldRead{id, b}
			}
			for _, h := range ring {
				verify(h)
			}
		}(rd)
	}
	wg.Wait()
	if corrupt != 0 {
		t.Fatalf("%d corrupted reads: a held slice changed after its entry was evicted or replaced", corrupt)
	}

	for id := dataset.SampleID(0); id < keys; id++ {
		p.delete(id)
	}
	if got := p.liveBytes.Load(); got != 0 || p.len() != 0 {
		t.Fatalf("liveBytes %d, %d entries after draining, want 0 and 0", got, p.len())
	}
}

// TestStoreConcurrentSameKey hammers one key from all sides — overwrite,
// delete and read interleaved on one shard entry — and every read must see
// one whole generation.
func TestStoreConcurrentSameKey(t *testing.T) {
	p := newPayloadStore()
	const id = dataset.SampleID(5)
	p.put(id, pattern(id, 1, 300))
	var wg sync.WaitGroup
	var corrupt int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev []byte
			for r := 0; r < 500; r++ {
				switch (w + r) % 4 {
				case 0, 1:
					p.put(id, pattern(id, byte(r), 300))
				case 2:
					p.delete(id)
				default:
					b, ok := p.get(id)
					if ok && !patternIntact(id, b, 300) {
						atomic.AddInt64(&corrupt, 1)
					}
					// The previous read has been overwritten or deleted by now.
					if prev != nil && !patternIntact(id, prev, 300) {
						atomic.AddInt64(&corrupt, 1)
					}
					prev = b
				}
			}
		}(w)
	}
	wg.Wait()
	if corrupt != 0 {
		t.Fatalf("%d reads saw a torn or rewritten payload", corrupt)
	}
	p.delete(id)
	if got := p.liveBytes.Load(); got != 0 {
		t.Fatalf("liveBytes %d at rest", got)
	}
}

// TestStoreStatsSurface: liveBytes follows put, overwrite and delete exactly
// and returns to 0 when the store empties (deleting an absent id is a no-op).
func TestStoreStatsSurface(t *testing.T) {
	p := newPayloadStore()
	for _, step := range []struct {
		do   func()
		want int64
	}{
		{func() { p.put(1, make([]byte, 512)) }, 512},
		{func() { p.put(2, make([]byte, 300)) }, 812},
		{func() { p.put(1, make([]byte, 100)) }, 400},
		{func() { p.put(3, nil) }, 400},
		{func() { p.delete(2) }, 100},
		{func() { p.delete(2) }, 100},
		{func() { p.delete(1); p.delete(3) }, 0},
	} {
		step.do()
		if got := p.liveBytes.Load(); got != step.want {
			t.Fatalf("liveBytes %d, want %d", got, step.want)
		}
	}
	if p.len() != 0 {
		t.Fatalf("%d entries left", p.len())
	}
}

// TestStoreIDsAndLen sanity-checks the snapshot helpers the metrics and
// diagnostics paths use.
func TestStoreIDsAndLen(t *testing.T) {
	p := newPayloadStore()
	want := map[dataset.SampleID]bool{}
	for i := 0; i < 100; i++ {
		id := dataset.SampleID(i * 17)
		p.put(id, []byte(fmt.Sprintf("payload-%d", id)))
		want[id] = true
	}
	if p.len() != len(want) {
		t.Fatalf("len %d, want %d", p.len(), len(want))
	}
	for _, id := range p.ids() {
		if !want[id] {
			t.Fatalf("unexpected id %d", id)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("%d ids missing from snapshot", len(want))
	}
}
