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
	// package, and metadata updates (see Config.RepackPerSample). Static
	// packaging pays none of it — its packages pre-exist on storage.
	repackPerSample simclock.Time
	mode            PackagingMode
	// cursor walks the static chunk sequence when no misses are queued.
	cursor int
	rng    *rand.Rand

	// wastedBytes counts loaded bytes whose samples could not be used
	// (H-samples, already cached): static packaging's read amplification.
	// usefulBytes counts bytes actually delivered into the L-cache.
	wastedBytes int64
	usefulBytes int64

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

// newLoaderWithMode builds a loader with an explicit packaging strategy.
func newLoaderWithMode(backend *storage.Backend, pkgBytes int, repackPerSample simclock.Time, mode PackagingMode, rng *rand.Rand) *loader {
	ld := newLoader(backend, pkgBytes, repackPerSample, rng)
	ld.mode = mode
	return ld
}

// recordMiss queues an L-sample that missed for priority re-packing.
func (ld *loader) recordMiss(id dataset.SampleID) {
	if _, dup := ld.missedSet[id]; dup {
		return
	}
	ld.missedSet[id] = struct{}{}
	ld.missedQ = append(ld.missedQ, id)
}

// composePackage assembles the next package according to the packaging
// mode. It returns the *useful* sample IDs (the ones worth inserting into
// the L-cache) and the byte volume the read will transfer — under static
// packaging the transfer includes unusable chunk members, which is exactly
// the read amplification dynamic packaging exists to avoid.
func (ld *loader) composePackage(hl *sampling.HList, h *hcache, l *lcache) ([]dataset.SampleID, int) {
	if ld.mode == PackagingStatic {
		return ld.composeStatic(hl, h, l)
	}
	return ld.composeDynamic(hl, h, l)
}

// composeStatic loads the fixed pre-packed chunk holding the oldest missed
// L-sample (or the next chunk in sequence when no misses are queued).
func (ld *loader) composeStatic(hl *sampling.HList, h *hcache, l *lcache) ([]dataset.SampleID, int) {
	chunkSamples := ld.pkgBytes / ld.spec.MeanSampleBytes
	if chunkSamples < 1 {
		chunkSamples = 1
	}
	chunks := (ld.spec.NumSamples + chunkSamples - 1) / chunkSamples
	chunk := -1
	for len(ld.missedQ) > 0 {
		id := ld.missedQ[0]
		ld.missedQ = ld.missedQ[1:]
		delete(ld.missedSet, id)
		if l.contains(id) || h.contains(id) || hl.Contains(id) {
			continue
		}
		chunk = int(id) / chunkSamples
		break
	}
	if chunk < 0 {
		chunk = ld.cursor % chunks
		ld.cursor++
	}
	first := chunk * chunkSamples
	last := first + chunkSamples
	if last > ld.spec.NumSamples {
		last = ld.spec.NumSamples
	}
	var useful []dataset.SampleID
	total := 0
	for i := first; i < last; i++ {
		id := dataset.SampleID(i)
		size := ld.spec.SampleBytes(id)
		total += size // the whole chunk crosses the wire
		if hl.Contains(id) || h.contains(id) || l.contains(id) {
			ld.wastedBytes += int64(size)
			continue
		}
		useful = append(useful, id)
	}
	return useful, total
}

// composeDynamic assembles up to pkgBytes of L-samples: recorded misses
// first, then random L-samples, skipping anything already in either cache
// region. An empty result means there is nothing useful to load right now.
func (ld *loader) composeDynamic(hl *sampling.HList, h *hcache, l *lcache) ([]dataset.SampleID, int) {
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
		if len(ids) == 0 && ld.mode != PackagingStatic {
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
		if len(ids) > 0 {
			ld.pending = append(ld.pending, packageArrival{at: end, ids: ids})
		}
		ld.packages++
		ld.samples += int64(len(ids))
		if ld.mode == PackagingStatic {
			// Pre-packed chunks need no repack pass; the read itself is the
			// whole cost (including its wasted bytes).
			ld.nextFree = end
		} else {
			ld.nextFree = end + time.Duration(len(ids))*ld.repackPerSample
		}
	}
}

// reset discards all in-flight state (crash semantics): pending package
// arrivals are lost with the node's memory, and the miss queue is cleared
// because the misses it recorded were for a cache that no longer exists.
// Cumulative counters (packages, samples, byte totals) survive.
func (ld *loader) reset(now simclock.Time) {
	ld.pending = nil
	ld.missedQ = nil
	ld.missedSet = make(map[dataset.SampleID]struct{})
	ld.gated = false
	if ld.nextFree < now {
		ld.nextFree = now
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
