package icache

import (
	"math/rand"

	"icache/internal/dataset"
)

// lcache is the L-cache of §III-C. It holds low-importance samples delivered
// in packages by the loading thread and serves them with substitutability:
// a request for an L-sample that is resident and unused this epoch is an
// exact hit; a request for an absent L-sample is served by a randomly picked
// unused resident. Every resident substitutes (or serves) at most once per
// epoch, which is what preserves sample diversity.
type lcache struct {
	items    map[dataset.SampleID]int // id → size
	capBytes int64
	used     int64

	// unused is the pool of residents not yet served this epoch, with an
	// index map for O(1) removal and uniform random picks; unusedB tracks
	// the pool's byte volume incrementally.
	unused    []dataset.SampleID
	unusedIdx map[dataset.SampleID]int
	unusedB   int64

	// arrival is FIFO admission order; usedQ holds residents already served
	// this epoch in use order. Eviction prefers usedQ (spent diversity)
	// before the oldest unused arrivals.
	arrival []dataset.SampleID
	usedQ   []dataset.SampleID

	inserts   int64
	evictions int64

	// onEvict, when set, observes every eviction (the distributed mode
	// releases directory ownership there).
	onEvict func(dataset.SampleID)
	// claim, when set, must approve each admission; the distributed mode
	// claims directory ownership here, and a failed claim (item owned by
	// another node) vetoes the insert so no item is cached twice.
	claim func(dataset.SampleID) bool
}

func newLCache(capBytes int64) *lcache {
	return &lcache{
		items:     make(map[dataset.SampleID]int),
		capBytes:  capBytes,
		unusedIdx: make(map[dataset.SampleID]int),
	}
}

func (l *lcache) contains(id dataset.SampleID) bool {
	_, ok := l.items[id]
	return ok
}

func (l *lcache) len() int { return len(l.items) }

// unusedCount reports how many residents can still serve this epoch.
func (l *lcache) unusedCount() int { return len(l.unused) }

// unusedBytes reports the byte volume of still-unused residents.
func (l *lcache) unusedBytes() int64 { return l.unusedB }

func (l *lcache) addUnused(id dataset.SampleID) {
	l.unusedIdx[id] = len(l.unused)
	l.unused = append(l.unused, id)
	l.unusedB += int64(l.items[id])
}

func (l *lcache) dropUnused(id dataset.SampleID) bool {
	i, ok := l.unusedIdx[id]
	if !ok {
		return false
	}
	l.unusedB -= int64(l.items[id])
	last := len(l.unused) - 1
	if i != last {
		l.unused[i] = l.unused[last]
		l.unusedIdx[l.unused[i]] = i
	}
	l.unused = l.unused[:last]
	delete(l.unusedIdx, id)
	return true
}

// markUsed moves a resident out of the substitution pool.
func (l *lcache) markUsed(id dataset.SampleID) {
	if l.dropUnused(id) {
		l.usedQ = append(l.usedQ, id)
	}
}

// takeExact serves a request for id from the cache if it is resident and
// unused this epoch. Reports whether it was served.
func (l *lcache) takeExact(id dataset.SampleID) bool {
	if !l.contains(id) {
		return false
	}
	if _, unused := l.unusedIdx[id]; !unused {
		return false // already served this epoch: do not break diversity
	}
	l.markUsed(id)
	return true
}

// substitute serves a miss with a uniformly random unused resident,
// reporting the substitute's ID.
func (l *lcache) substitute(rng *rand.Rand) (dataset.SampleID, bool) {
	if len(l.unused) == 0 {
		return 0, false
	}
	id := l.unused[rng.Intn(len(l.unused))]
	l.markUsed(id)
	return id, true
}

// evictOne removes one resident: first anything already used this epoch
// (its diversity value is spent), then the oldest unused arrival. Reports
// false when the cache is empty.
func (l *lcache) evictOne() bool {
	for len(l.usedQ) > 0 {
		id := l.usedQ[0]
		l.usedQ = l.usedQ[1:]
		if size, ok := l.items[id]; ok {
			delete(l.items, id)
			l.used -= int64(size)
			l.evictions++
			if l.onEvict != nil {
				l.onEvict(id)
			}
			return true
		}
	}
	for len(l.arrival) > 0 {
		id := l.arrival[0]
		l.arrival = l.arrival[1:]
		if size, ok := l.items[id]; ok {
			l.dropUnused(id) // before the items delete: it reads the size
			delete(l.items, id)
			l.used -= int64(size)
			l.evictions++
			if l.onEvict != nil {
				l.onEvict(id)
			}
			return true
		}
	}
	return false
}

// insert admits one sample from an arrived package, evicting as needed.
// Oversized samples are rejected. Reports whether it was admitted.
func (l *lcache) insert(id dataset.SampleID, size int) bool {
	if l.contains(id) {
		return true
	}
	if int64(size) > l.capBytes {
		return false
	}
	if l.claim != nil && !l.claim(id) {
		return false
	}
	for l.used+int64(size) > l.capBytes {
		if !l.evictOne() {
			return false
		}
	}
	l.items[id] = size
	l.used += int64(size)
	l.arrival = append(l.arrival, id)
	l.addUnused(id)
	l.inserts++
	return true
}

// remove drops a specific sample (distributed ownership moves).
func (l *lcache) remove(id dataset.SampleID) bool {
	size, ok := l.items[id]
	if !ok {
		return false
	}
	l.dropUnused(id) // before the items delete: it reads the size
	delete(l.items, id)
	l.used -= int64(size)
	return true
}

// beginEpoch returns every resident to the substitution pool.
func (l *lcache) beginEpoch() {
	l.usedQ = l.usedQ[:0]
	l.unused = l.unused[:0]
	l.unusedB = 0
	for id := range l.unusedIdx {
		delete(l.unusedIdx, id)
	}
	// Rebuild the pool in arrival order (compacting stale entries) so the
	// pool is deterministic for a given history.
	live := l.arrival[:0]
	for _, id := range l.arrival {
		if _, ok := l.items[id]; !ok {
			continue
		}
		if _, dup := l.unusedIdx[id]; dup {
			continue // stale duplicate arrival entry after evict+re-insert
		}
		live = append(live, id)
		l.addUnused(id)
	}
	l.arrival = live
}

// resize updates the byte budget, evicting as needed.
func (l *lcache) resize(capBytes int64) {
	l.capBytes = capBytes
	for l.used > l.capBytes {
		if !l.evictOne() {
			return
		}
	}
}
