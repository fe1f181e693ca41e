package icache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"icache/internal/dataset"
	"icache/internal/impheap"
)

// TestHCacheAdmissionProperty checks Algorithm 1's admission rule under
// random traffic: whenever an offer is rejected by a full cache, the
// incoming importance must not exceed the minimum resident importance; and
// whenever eviction happens, only lower-importance residents are displaced.
func TestHCacheAdmissionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const capBytes = 10 * 1000
		h := newHCache(capBytes)
		values := map[dataset.SampleID]float64{}
		for op := 0; op < 1500; op++ {
			id := dataset.SampleID(rng.Intn(200))
			iv := rng.Float64()
			if h.contains(id) {
				// Re-offer of a resident is a no-op admit.
				if !h.offer(id, 1000, iv) {
					return false
				}
				continue
			}
			full := h.used+1000 > capBytes
			var minIV float64
			if full {
				min, ok := h.heap.Min()
				if !ok {
					return false
				}
				minIV = min.IV
			}
			admitted := h.offer(id, 1000, iv)
			switch {
			case !full:
				if !admitted {
					return false // room existed
				}
				values[id] = iv
			case admitted:
				// Must have displaced strictly less important residents.
				if iv <= minIV {
					return false
				}
				values[id] = iv
			default:
				// Rejected: incoming must not beat the eviction candidate.
				if iv > minIV {
					return false
				}
			}
			// Mirror evictions.
			for vid := range values {
				if !h.contains(vid) {
					delete(values, vid)
				}
			}
			// Structural invariants.
			if h.used > capBytes || h.len() != h.heap.Len() || h.len() != len(values) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshImportanceEvictionOrder checks that a refresh, which records
// every resident's new value on the frozen heap and rebuilds it once, leaves
// the eviction order eager updates would: PopMin yields the residents by
// (new value, ID), demoted residents (value 0) first. The second refresh
// finds residents in both the frozen main heap and the shadow.
func TestRefreshImportanceEvictionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newHCache(1 << 30)
	offer := func(n int) {
		for i := 0; i < n; i++ {
			h.offer(dataset.SampleID(rng.Intn(5000)), 100, float64(rng.Intn(50)))
		}
	}
	values := map[dataset.SampleID]float64{}
	value := func(id dataset.SampleID) (float64, bool) {
		iv, ok := values[id]
		return iv, ok
	}
	draw := func() {
		clear(values)
		for id := range h.items {
			if rng.Intn(4) > 0 { // a quarter of the residents are demoted
				values[id] = float64(rng.Intn(50)) // ties break by ID
			}
		}
	}

	offer(300)
	draw()
	h.refreshImportance(value)
	offer(300) // frozen: these land in the shadow
	draw()
	h.refreshImportance(value)

	eager := impheap.New()
	for id := range h.items {
		iv, _ := value(id)
		if err := eager.Insert(id, iv); err != nil {
			t.Fatal(err)
		}
	}
	if !h.heap.Frozen() {
		t.Fatal("the heap is not frozen after a refresh")
	}
	for n := 0; ; n++ {
		want, wok := eager.PopMin()
		got, gok := h.heap.PopMin()
		if got != want || gok != wok {
			t.Fatalf("pop %d: got %+v (%v), eager order %+v (%v)", n, got, gok, want, wok)
		}
		if !wok {
			break
		}
	}
}
