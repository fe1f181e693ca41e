package icache

import (
	"math/rand"

	"icache/internal/dataset"
	"icache/internal/impheap"
)

// hcache is the H-cache of §III-B: a key-value store of high-importance
// samples plus the shadowed H-heap that orders them by importance value for
// eviction. The simulation stores sample sizes rather than payloads; the
// RPC server layers real bytes on top.
type hcache struct {
	items    map[dataset.SampleID]int // id → size
	heap     *impheap.Shadowed
	capBytes int64
	used     int64

	// ids/idx support O(1) uniform random resident picks (the ST_HC
	// substitution policy of Table III).
	ids []dataset.SampleID
	idx map[dataset.SampleID]int

	inserts   int64
	evictions int64

	// onEvict, when set, observes every eviction (the distributed mode
	// releases directory ownership there).
	onEvict func(dataset.SampleID)
}

func newHCache(capBytes int64) *hcache {
	return &hcache{
		items:    make(map[dataset.SampleID]int),
		heap:     impheap.NewShadowed(),
		idx:      make(map[dataset.SampleID]int),
		capBytes: capBytes,
	}
}

func (h *hcache) trackID(id dataset.SampleID) {
	h.idx[id] = len(h.ids)
	h.ids = append(h.ids, id)
}

func (h *hcache) untrackID(id dataset.SampleID) {
	i, ok := h.idx[id]
	if !ok {
		return
	}
	last := len(h.ids) - 1
	if i != last {
		h.ids[i] = h.ids[last]
		h.idx[h.ids[i]] = i
	}
	h.ids = h.ids[:last]
	delete(h.idx, id)
}

// randomResident returns a uniformly random cached sample.
func (h *hcache) randomResident(rng *rand.Rand) (dataset.SampleID, bool) {
	if len(h.ids) == 0 {
		return 0, false
	}
	return h.ids[rng.Intn(len(h.ids))], true
}

func (h *hcache) contains(id dataset.SampleID) bool {
	_, ok := h.items[id]
	return ok
}

func (h *hcache) len() int { return len(h.items) }

// evictMin removes the heap's top-node from the cache. Returns false when
// the cache is empty.
func (h *hcache) evictMin() bool {
	top, ok := h.heap.PopMin()
	if !ok {
		return false
	}
	size := h.items[top.ID]
	delete(h.items, top.ID)
	h.untrackID(top.ID)
	h.used -= int64(size)
	h.evictions++
	if h.onEvict != nil {
		h.onEvict(top.ID)
	}
	return true
}

// offer implements Algorithm 1's admission path for a fetched H-sample: if
// the cache has room it is inserted; otherwise the top-node is evicted only
// if its importance value is smaller than the incoming sample's. Reports
// whether the sample was admitted.
func (h *hcache) offer(id dataset.SampleID, size int, iv float64) bool {
	if h.contains(id) {
		return true
	}
	if int64(size) > h.capBytes {
		return false
	}
	for h.used+int64(size) > h.capBytes {
		min, ok := h.heap.Min()
		if !ok {
			return false
		}
		if min.IV >= iv {
			return false // incoming sample is not more important: reject
		}
		h.evictMin()
	}
	h.items[id] = size
	if err := h.heap.Insert(id, iv); err != nil {
		// The items map said the ID was absent; the heap must agree.
		panic("icache: hcache heap out of sync: " + err.Error())
	}
	h.trackID(id)
	h.used += int64(size)
	h.inserts++
	return true
}

// resize updates the byte budget, evicting lowest-importance residents
// until the cache fits (used when the manager repartitions).
func (h *hcache) resize(capBytes int64) {
	h.capBytes = capBytes
	for h.used > h.capBytes {
		if !h.evictMin() {
			return
		}
	}
}

// refreshImportance applies a new H-list to the cache, per the shadow-heap
// protocol: the previous frozen period (if any) is merged, every cached
// sample's importance is updated — samples demoted out of the new H-list
// get importance 0 so they become the first eviction candidates — and the
// heap is frozen again for the coming epoch.
func (h *hcache) refreshImportance(value func(dataset.SampleID) (float64, bool)) {
	if h.heap.Frozen() {
		if err := h.heap.Thaw(); err != nil {
			panic("icache: thaw: " + err.Error())
		}
	}
	for id := range h.items {
		iv, ok := value(id)
		if !ok {
			iv = 0 // demoted: no longer an H-sample
		}
		h.heap.Update(id, iv)
	}
	if err := h.heap.Freeze(); err != nil {
		panic("icache: freeze: " + err.Error())
	}
}

// remove drops a specific sample (used by the distributed mode when
// ownership moves). Reports whether it was present.
func (h *hcache) remove(id dataset.SampleID) bool {
	size, ok := h.items[id]
	if !ok {
		return false
	}
	delete(h.items, id)
	h.heap.Remove(id)
	h.untrackID(id)
	h.used -= int64(size)
	return true
}
