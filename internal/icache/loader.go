package icache

import (
	"math/rand"
	"time"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// loader is the asynchronous loading thread of §III-C. It composes packages
// dynamically — L-samples that recently missed in the L-cache are re-packed
// first, the remaining space is filled with randomly selected L-samples —
// and streams them from the backend as large sequential reads that share
// (and therefore contend for) the same storage resources as foreground
// fetches. Arrived packages are applied to the L-cache lazily, when the
// server observes virtual time passing each arrival's completion instant.
type loader struct {
	backend  *storage.Backend
	spec     dataset.Spec
	pkgBytes int
	// repackPerSample is the bookkeeping cost per packed sample: gathering
	// it from its scattered location, writing it into the reorganized
	// package, and metadata updates (see the repackPerSample constant).
	repackPerSample simclock.Time
	rng             *rand.Rand

	// usefulBytes counts bytes actually delivered into the L-cache.
	// wastedBytes counts bytes fetchStaticChunk read whose samples could not
	// be used (H-samples, already cached): static packaging's read
	// amplification. The loading thread itself only packs useful samples.
	usefulBytes int64
	wastedBytes int64

	// nextFree is the loading thread's own timeline: it issues one package
	// read at a time.
	nextFree simclock.Time
	pending  []packageArrival

	// Re-pack queue: L-samples that missed, in miss order, deduplicated.
	missedQ   []dataset.SampleID
	missedSet map[dataset.SampleID]struct{}

	// gated records that the thread was blocked (no room or nothing to
	// load) so the next issue starts at the unblocking instant instead of
	// retroactively at nextFree.
	gated bool

	packages int64 // packages issued
	samples  int64 // samples shipped in packages
}

type packageArrival struct {
	at  simclock.Time
	ids []dataset.SampleID
}

func newLoader(backend *storage.Backend, pkgBytes int, repackPerSample simclock.Time, rng *rand.Rand) *loader {
	return &loader{
		backend:         backend,
		spec:            backend.Spec(),
		pkgBytes:        pkgBytes,
		repackPerSample: repackPerSample,
		rng:             rng,
		missedSet:       make(map[dataset.SampleID]struct{}),
	}
}

// recordMiss queues an L-sample that missed for priority re-packing.
func (ld *loader) recordMiss(id dataset.SampleID) {
	if _, dup := ld.missedSet[id]; dup {
		return
	}
	ld.missedSet[id] = struct{}{}
	ld.missedQ = append(ld.missedQ, id)
}

// composePackage assembles up to pkgBytes of L-samples: recorded misses
// first, then random L-samples, skipping anything already in either cache
// region. It returns the sample IDs and the byte volume the read will
// transfer; an empty result means there is nothing useful to load right now.
func (ld *loader) composePackage(hl *sampling.HList, h *hcache, l *lcache) ([]dataset.SampleID, int) {
	var ids []dataset.SampleID
	chosen := make(map[dataset.SampleID]struct{}, ld.pkgBytes/ld.spec.MeanSampleBytes+1)
	total := 0
	add := func(id dataset.SampleID) bool {
		chosen[id] = struct{}{}
		size := ld.spec.SampleBytes(id)
		if total+size > ld.pkgBytes && len(ids) > 0 {
			return false
		}
		ids = append(ids, id)
		total += size
		return total < ld.pkgBytes
	}

	// 1) Re-pack recorded misses (skip any that got cached meanwhile or
	// were promoted to H-samples).
	for len(ld.missedQ) > 0 && total < ld.pkgBytes {
		id := ld.missedQ[0]
		ld.missedQ = ld.missedQ[1:]
		delete(ld.missedSet, id)
		if l.contains(id) || h.contains(id) || hl.Contains(id) {
			continue
		}
		if !add(id) {
			break
		}
	}

	// 2) Fill with random L-samples. Bounded rejection sampling: with a
	// 20% cache the expected number of tries per accepted sample is small;
	// the bound keeps pathological configurations (everything cached) from
	// spinning.
	n := ld.spec.NumSamples
	tries := 0
	maxTries := 20 * (ld.pkgBytes/ld.spec.MeanSampleBytes + 1)
	for total < ld.pkgBytes && tries < maxTries {
		tries++
		id := dataset.SampleID(ld.rng.Intn(n))
		if _, dup := chosen[id]; dup {
			continue
		}
		if hl.Contains(id) || l.contains(id) || h.contains(id) {
			continue
		}
		if !add(id) {
			break
		}
	}
	return ids, total
}

// pump issues package reads until the loading thread's timeline catches up
// with now or there is no point loading more. hasRoom gates issuing: the
// L-cache must be able to absorb a package without evicting unused
// (still-valuable) residents.
func (ld *loader) pump(now simclock.Time, hl *sampling.HList, h *hcache, l *lcache) {
	for ld.nextFree <= now {
		if l.capBytes-l.unusedBytes() < int64(ld.pkgBytes) {
			// Absorbing a package now would destroy unused (still
			// valuable) residents; wait for consumption to make room.
			ld.gated = true
			return
		}
		ids, total := ld.composePackage(hl, h, l)
		if len(ids) == 0 {
			ld.gated = true
			return
		}
		start := ld.nextFree
		if ld.gated {
			// The thread was blocked and only unblocked by events at the
			// current instant; it cannot retroactively have been loading.
			start = now
			ld.gated = false
		}
		end := ld.backend.ReadPackage(start, total)
		ld.pending = append(ld.pending, packageArrival{at: end, ids: ids})
		ld.packages++
		ld.samples += int64(len(ids))
		ld.nextFree = end + time.Duration(len(ids))*ld.repackPerSample
	}
}

// deliver applies every package whose read completed at or before now.
func (ld *loader) deliver(now simclock.Time, l *lcache) {
	kept := ld.pending[:0]
	for _, p := range ld.pending {
		if p.at <= now {
			for _, id := range p.ids {
				size := ld.spec.SampleBytes(id)
				if l.insert(id, size) {
					ld.usefulBytes += int64(size)
				}
			}
		} else {
			kept = append(kept, p)
		}
	}
	ld.pending = kept
}
