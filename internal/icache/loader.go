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
// first, the remaining space is filled with randomly selected L-samples — and
// hands each to the server's package reader, one in flight at a time
// (Server.composeNext). The reader lands the members (DeliverMember) and ends
// the package (EndPackage), which composes the next one from the cache state
// the landing left: on the wire the prefetch pool's member reads, in the
// simulator vtReader's large sequential reads on the storage model, which
// share (and therefore contend for) the resources foreground fetches use.
type loader struct {
	spec     dataset.Spec
	pkgBytes int
	rng      *rand.Rand

	// usefulBytes counts bytes actually delivered into the L-cache.
	// wastedBytes counts bytes fetchStaticChunk read whose samples could not
	// be used (H-samples, already cached): static packaging's read
	// amplification. The loading thread itself only packs useful samples.
	usefulBytes int64
	wastedBytes int64

	// Re-pack queue: L-samples that missed, in miss order, deduplicated.
	missedQ   []dataset.SampleID
	missedSet map[dataset.SampleID]struct{}

	packages int64 // packages composed
	inFlight bool  // the package a reader holds
	landed   bool  // a member of the package in flight reached the L-cache
}

func newLoader(spec dataset.Spec, pkgBytes int, rng *rand.Rand) *loader {
	return &loader{
		spec:      spec,
		pkgBytes:  pkgBytes,
		rng:       rng,
		missedSet: make(map[dataset.SampleID]struct{}),
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
	// add packs id, or reports false when it does not fit (a package's
	// first id always does).
	add := func(id dataset.SampleID) bool {
		size := ld.spec.SampleBytes(id)
		if total+size > ld.pkgBytes && len(ids) > 0 {
			return false
		}
		chosen[id] = struct{}{}
		ids = append(ids, id)
		total += size
		return true
	}

	// 1) Re-pack recorded misses (skip any that got cached meanwhile or
	// were promoted to H-samples). A miss that does not fit stays at the
	// front of the queue for the next package.
	for len(ld.missedQ) > 0 && total < ld.pkgBytes {
		id := ld.missedQ[0]
		if !l.contains(id) && !h.contains(id) && !hl.Contains(id) && !add(id) {
			break
		}
		ld.missedQ = ld.missedQ[1:]
		delete(ld.missedSet, id)
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

// vtReader is the virtual-time reader, the engine's only handle on the
// storage model: it charges each demand miss (readMiss) and, as the package
// reader NewServer installs, reads each package composeNext hands it with one
// Backend.ReadPackage, landing it (DeliverMember, EndPackage) once a caller's
// clock passes the read's end. A package EndPackage composes starts where the
// previous one's re-pack ends, at its end plus repack per member; one composed
// later, after the thread found no room or nothing to load, starts at that
// instant or at the composing request's, whichever is later. No read is
// issued on the model before its start. Callers' clocks need not be
// monotonic: a clock short of the start or the end leaves the package in
// flight. SetPackageReader drops the reader; a nil one charges nothing.
type vtReader struct {
	s       *Server
	backend *storage.Backend
	repack  simclock.Time // repackPerSample; tests vary it

	ids    []dataset.SampleID // the package in flight, nil when none
	start  simclock.Time
	end    simclock.Time
	issued bool          // the read of ids is on the model, ending at end
	free   simclock.Time // the previous package's end plus its re-pack
	at     simclock.Time // the latest caller's clock
	chain  bool          // EndPackage is composing
}

// readMiss charges a demand miss on the model at at and returns its end: the
// sample's own random read, or, under static packaging, one sequential read
// of the chunk bytes that hold it (chunk > 0).
func (r *vtReader) readMiss(at simclock.Time, id dataset.SampleID, chunk int) simclock.Time {
	if r == nil {
		return at
	}
	if chunk > 0 {
		return r.backend.ReadPackage(at, chunk)
	}
	return r.backend.ReadSample(at, id)
}

func (r *vtReader) read(ids []dataset.SampleID) {
	r.ids, r.start, r.issued = ids, r.free, false
	if !r.chain {
		r.start = max(r.free, r.at)
	}
	r.issue()
}

// issue reads the package in flight on the model once the clock reaches its
// start.
func (r *vtReader) issue() {
	if r.ids == nil || r.issued || r.start > r.at {
		return
	}
	total := 0
	for _, id := range r.ids {
		total += r.s.spec.SampleBytes(id)
	}
	r.end, r.issued = r.backend.ReadPackage(r.start, total), true
}

// advance issues and lands packages as far as the clock at reaches.
func (r *vtReader) advance(at simclock.Time) {
	if r == nil {
		return
	}
	r.at = at
	r.issue()
	for r.issued && r.end <= at {
		ids := r.ids
		r.ids, r.issued = nil, false
		r.free = r.end + time.Duration(len(ids))*r.repack
		for _, id := range ids {
			r.s.DeliverMember(id)
		}
		r.chain = true
		r.s.EndPackage()
		r.chain = false
	}
}
