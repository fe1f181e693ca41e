package icache

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
	"icache/internal/trace"
)

// Server is a single-node iCache instance: the cache manager plus the
// H-cache and L-cache regions. It implements the data-service contract the
// training pipeline consumes (BeginEpoch / FetchBatch / Stats / Name).
//
// A Server used by a single job manages its H-list directly from that job's
// importance tracker. Multi-job sharing goes through a Coordinator, which
// feeds the server an aggregated H-list instead (see multijob.go).
type Server struct {
	cfg     Config
	backend *storage.Backend
	spec    dataset.Spec
	iis     sampling.IISConfig
	rng     *rand.Rand

	h  *hcache
	l  *lcache
	ld *loader
	// t2 is the optional local-storage spill tier (nil when disabled).
	t2 *tier2
	// userEvict is the externally registered eviction observer; the server
	// chains it after its own spill hook.
	userEvict func(dataset.SampleID)

	// The distributed mode's seams, nil on a lone server; a Cluster sets
	// them on its nodes (distributed.go). claim must approve every H
	// admission (lcache.claim is the L half) and release hands back a claim
	// whose sample the H-heap then turned away; an eviction reaches the
	// directory through the eviction observer. onMiss is asked where
	// fetchOne is about to read the backend, after substitution — where
	// rpc.Server asks its peers.
	claim   func(dataset.SampleID) bool
	release func(dataset.SampleID)
	onMiss  func(at simclock.Time, id dataset.SampleID) (simclock.Time, missOutcome)

	// hlist is the active H-list: the job's own in single-job mode, or the
	// AIV-combined list installed by a Coordinator. hlistIV indexes its
	// importance values by sample ID.
	hlist   *sampling.HList
	hlistIV map[dataset.SampleID]float64
	// managed reports whether a Coordinator owns H-list installation;
	// BeginEpoch then leaves the active list alone.
	managed bool

	stats metrics.CacheStats
	// dec holds the decision-level introspection counters (see decision.go).
	dec decisionState

	// Per-sample access frequency EMAs for PartitionByFrequency.
	freqH, freqL         float64
	epochHReq, epochLReq int64

	// tracer records request-level events when set (nil = off).
	tracer *trace.Recorder
	// subScanHist, when set, times each substitute-selection scan (the
	// policy's hunt for a served-already resident to swap in for a missed
	// L-sample). nil = off; see SetSubstitutionScanHist.
	subScanHist *obs.Histogram
	epoch       int64

	// subsOff (atomic 0/1) is the brownout switch: while set, the serving
	// path skips substitute-selection scans entirely (misses go straight to
	// the backend). Flipped from the admission gate's state-change hook,
	// which runs concurrently with FetchBatch — hence atomic, not cfg.
	subsOff int32
}

// NewServer builds an iCache server over the given backend.
func NewServer(backend *storage.Backend, cfg Config, iis sampling.IISConfig, seed int64) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := iis.Validate(); err != nil {
		return nil, err
	}
	hBytes := int64(float64(cfg.CapacityBytes) * cfg.HShare)
	lBytes := cfg.CapacityBytes - hBytes
	if !cfg.EnableLCache {
		hBytes, lBytes = cfg.CapacityBytes, 0
	}
	// The loading unit can never exceed what the L-cache can absorb without
	// destroying unused residents; half the region keeps loading smooth.
	// (The paper instead floors the L-cache at one package; clamping the
	// package handles tiny caches in the same spirit.)
	pkg := cfg.PackageBytes
	if cfg.EnableLCache && int64(pkg) > lBytes/2 {
		pkg = int(lBytes / 2)
		if pkg < backend.Spec().MeanSampleBytes {
			pkg = backend.Spec().MeanSampleBytes
		}
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Server{
		cfg:     cfg,
		backend: backend,
		spec:    backend.Spec(),
		iis:     iis,
		rng:     rng,
		h:       newHCache(hBytes),
		l:       newLCache(lBytes),
		ld:      newLoaderWithMode(backend, pkg, cfg.RepackPerSample, cfg.Packaging, rand.New(rand.NewSource(seed+1))),
		hlist:   sampling.NewHList(nil),
	}
	if cfg.Tier2Bytes > 0 {
		s.t2 = newTier2(cfg.Tier2Bytes, cfg.Tier2ReadLatency, cfg.Tier2Bandwidth)
		s.h.onEvict = func(id dataset.SampleID) {
			s.t2.spill(id, s.spec.SampleBytes(id))
			if s.userEvict != nil {
				s.userEvict(id)
			}
		}
	}
	return s, nil
}

// Name implements the data-service contract.
func (s *Server) Name() string {
	if !s.cfg.EnableLCache {
		return "icache-hc" // the +HC ablation rung
	}
	return "icache"
}

// Stats implements the data-service contract.
func (s *Server) Stats() metrics.CacheStats {
	st := s.stats
	st.Inserts = s.h.inserts + s.l.inserts
	st.Evictions = s.h.evictions + s.l.evictions
	return st
}

// SubstitutionSource declares the substitution severity class for the
// accuracy model ("lcache", "hcache", or "none").
func (s *Server) SubstitutionSource() string {
	switch s.cfg.Substitute {
	case SubstituteLCache:
		return "lcache"
	case SubstituteHCache:
		return "hcache"
	default:
		return "none"
	}
}

// View is the engine's numbers at one instant: what the serving layer's
// scrapes, Stats replies and epoch boundaries read, and what tests and
// experiment tables print.
type View struct {
	Cache      metrics.CacheStats
	HLen, LLen int
	// Packages counts the loading thread's package fetches. LoaderUseful is
	// the bytes it delivered into the L-cache; LoaderWasted the bytes it
	// read that could not be cached (static packaging's read amplification).
	Packages                   int64
	LoaderUseful, LoaderWasted int64
	// Tier2Len and Tier2Hits are the spill tier's residents and the misses
	// it served (0 when the tier is disabled).
	Tier2Len  int
	Tier2Hits int64
	// Ledger is the policy half of the decision ledger; the serving layer
	// overlays its admission-provenance and prefetch-outcome counters.
	Ledger metrics.DecisionStats
}

// View reads the engine. Callers serialize it with the engine's other
// calls (rpc.Server holds its policy lock).
func (s *Server) View() View {
	v := View{
		Cache:        s.Stats(),
		HLen:         s.h.len(),
		LLen:         s.l.len(),
		Packages:     s.ld.packages,
		LoaderUseful: s.ld.usefulBytes,
		LoaderWasted: s.ld.wastedBytes,
		Ledger:       s.decisionLedger(),
	}
	if s.t2 != nil {
		v.Tier2Len, v.Tier2Hits = len(s.t2.items), s.t2.hits
	}
	return v
}

// HShare reports the current fraction of capacity assigned to the H-cache.
func (s *Server) HShare() float64 {
	return float64(s.h.capBytes) / float64(s.cfg.CapacityBytes)
}

// BeginEpoch implements the data-service contract: it draws the epoch's IIS
// schedule from the job's tracker, pushes the fresh H-list into the cache
// manager (unless a Coordinator manages the list), repartitions, and resets
// per-epoch L-cache state.
func (s *Server) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	sched, hl := sampling.IISSchedule(tr, s.iis, rng)
	if !s.managed {
		s.InstallHList(hl)
	}
	s.startEpoch(at)
	if s.cfg.Clairvoyant {
		// The schedule is known before the epoch runs (the clairvoyance
		// premise): seed the loader with exactly the L-samples the epoch
		// will consume, in first-access order. The returned H-side plan is
		// ignored here — only the byte-serving layer can pre-place H bytes
		// without falsifying the foreground's virtual-time accounting.
		s.PlanSchedule(sched.Fetch)
	}
	return sched
}

// startEpoch performs the per-epoch manager duties shared by single-job and
// coordinated modes.
func (s *Server) startEpoch(at simclock.Time) {
	s.snapshotEpochResidency()
	s.tracer.Record(at, trace.KindEpoch, 0, s.epoch)
	s.epoch++
	s.repartition()
	s.l.beginEpoch()
	if s.cfg.EnableLCache && s.cfg.Packaging != PackagingStatic {
		// Static chunks are read in the foreground on demand; only dynamic
		// packaging has a background loading thread to roll forward.
		s.ld.pump(at, s.hlist, s.h, s.l)
		s.ld.deliver(at, s.l)
	}
	s.epochHReq, s.epochLReq = 0, 0
}

// InstallHList makes hl the active H-list and refreshes the H-heap's
// importance values under the shadow-heap protocol.
func (s *Server) InstallHList(hl *sampling.HList) {
	s.hlistIV = make(map[dataset.SampleID]float64, hl.Len())
	for _, it := range hl.Items {
		s.hlistIV[it.ID] = it.IV
	}
	s.hlist = hl
	s.h.refreshImportance(func(id dataset.SampleID) (float64, bool) {
		iv, ok := s.hlistIV[id]
		return iv, ok
	})
	s.tracer.Record(0, trace.KindRefresh, 0, int64(hl.Len()))
}

// SetManaged hands H-list installation over to a Coordinator.
func (s *Server) SetManaged(managed bool) { s.managed = managed }

// SetTracer attaches an event recorder (nil detaches). Tracing is off by
// default and costs nothing when detached.
func (s *Server) SetTracer(r *trace.Recorder) { s.tracer = r }

// SetSubstitutionScanHist attaches a latency histogram to the
// substitute-selection scan (nil detaches — recording into a nil histogram
// is a no-op, so the disabled path costs one nil check).
func (s *Server) SetSubstitutionScanHist(h *obs.Histogram) { s.subScanHist = h }

// SetSubstitutionsDisabled flips the brownout switch: while disabled, the
// serving path skips the substitute-selection scan (the costliest
// discretionary work on the miss path) and misses read the backend
// directly. Safe to call concurrently with FetchBatch.
func (s *Server) SetSubstitutionsDisabled(off bool) {
	var v int32
	if off {
		v = 1
	}
	atomic.StoreInt32(&s.subsOff, v)
}

// substitutionsDisabled reports the brownout switch state.
func (s *Server) substitutionsDisabled() bool { return atomic.LoadInt32(&s.subsOff) == 1 }

// Tracer returns the attached recorder, if any.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

// StartEpoch performs the per-epoch manager duties (repartition, L-cache
// reset, loader catch-up) without drawing a schedule. The RPC server uses
// it: over the wire the client owns the sampler, so the server only manages
// cache state at epoch boundaries. It returns the epoch it begins.
func (s *Server) StartEpoch(at simclock.Time) int64 {
	s.startEpoch(at)
	return s.epoch
}

// Resident reports whether a sample currently lives in either cache region.
// The byte-serving RPC layer uses it to keep its payload store aligned with
// the cache's admission decisions.
func (s *Server) Resident(id dataset.SampleID) bool {
	return s.h.contains(id) || s.l.contains(id)
}

// SetEvictObserver registers fn to be called with every sample evicted from
// either cache region (payload-store invalidation on the RPC path). It
// composes with the internal tier-2 spill hook when that is enabled.
func (s *Server) SetEvictObserver(fn func(dataset.SampleID)) {
	s.userEvict = fn
	if s.t2 == nil {
		s.h.onEvict = fn
	}
	s.l.onEvict = fn
}

// ActiveHList returns the H-list the cache currently manages by.
func (s *Server) ActiveHList() *sampling.HList { return s.hlist }

// repartition applies the configured partition policy.
func (s *Server) repartition() {
	if !s.cfg.EnableLCache || s.cfg.Partition != PartitionByFrequency {
		return
	}
	nH := s.hlist.Len()
	nL := s.spec.NumSamples - nH
	if nH == 0 || nL <= 0 || s.epochHReq+s.epochLReq == 0 {
		return
	}
	fH := float64(s.epochHReq) / float64(nH)
	fL := float64(s.epochLReq) / float64(nL)
	s.freqH = s.cfg.FreqDecay*s.freqH + (1-s.cfg.FreqDecay)*fH
	s.freqL = s.cfg.FreqDecay*s.freqL + (1-s.cfg.FreqDecay)*fL
	if s.freqH+s.freqL == 0 {
		return
	}
	share := s.freqH / (s.freqH + s.freqL)
	// Floors: the L-cache never shrinks below one package (§III-A), and the
	// H-cache keeps a useful minimum.
	hBytes := int64(share * float64(s.cfg.CapacityBytes))
	if min := int64(s.ld.pkgBytes); s.cfg.CapacityBytes-hBytes < min {
		hBytes = s.cfg.CapacityBytes - min
	}
	if hBytes < int64(s.ld.pkgBytes) {
		hBytes = int64(s.ld.pkgBytes)
	}
	s.h.resize(hBytes)
	s.l.resize(s.cfg.CapacityBytes - hBytes)
}

// FetchBatch implements Algorithm 1 for one worker fetching a mini-batch
// sequentially from virtual time at. It returns the completion time and the
// sample IDs actually served (substitution may swap L-samples).
func (s *Server) FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	return s.FetchBatchRouted(at, ids, s.hlist)
}

// FetchBatchInto decides a request's samples all at the request's instant
// at, appending the served IDs into *dst and reusing its capacity, and
// returns when the last of them completes. Unlike FetchBatch's sequential
// worker, no sample waits on an earlier one's simulated read: the RPC
// serving path, which calls this once per request with a pooled scratch
// slice, reads a request's misses concurrently and drives policy time by
// the wall clock, so the loader is never pumped past the present.
func (s *Server) FetchBatchInto(at simclock.Time, ids []dataset.SampleID, dst *[]dataset.SampleID) simclock.Time {
	end := at
	for _, id := range ids {
		end = max(end, s.fetchOne(at, id, s.hlist, dst))
	}
	return end
}

// FetchBatchRouted is FetchBatch with an explicit routing H-list: requests
// branch H vs L according to routing (the requesting job's own importance
// view — H-samples are never substituted, Algorithm 1), while admission and
// eviction keep using the manager's installed H-list (the AIV-combined one
// under multi-job coordination, §III-D). For a single job the two lists
// coincide and this is exactly FetchBatch.
func (s *Server) FetchBatchRouted(at simclock.Time, ids []dataset.SampleID, routing *sampling.HList) (simclock.Time, []dataset.SampleID) {
	served := make([]dataset.SampleID, 0, len(ids))
	for _, id := range ids {
		at = s.fetchOne(at, id, routing, &served)
	}
	return at, served
}

// fetchOne serves a single sample request, returning the new virtual time.
func (s *Server) fetchOne(at simclock.Time, id dataset.SampleID, routing *sampling.HList, served *[]dataset.SampleID) simclock.Time {
	if routing.Contains(id) {
		s.epochHReq++
		if s.h.contains(id) {
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			*served = append(*served, id)
			return at + s.cfg.HitLatency
		}
		iv, _ := s.hlistValue(id)
		if s.l.contains(id) {
			// Cached as an L-sample in an earlier epoch and since promoted
			// into the H-list: a hit, served from the copy the node has.
			s.promote(id, iv)
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			*served = append(*served, id)
			return at + s.cfg.HitLatency
		}
		if s.t2 != nil {
			if end, ok := s.t2.read(at, id); ok {
				// Promote the spilled sample back into DRAM; its own spill
				// hook recycles whatever this displaces.
				s.stats.Hits++
				s.admitH(id, iv)
				*served = append(*served, id)
				return end
			}
		}
		*served = append(*served, id)
		if end, ok := s.peerServed(at, id); ok {
			return end
		}
		at = s.backend.ReadSample(at, id)
		if s.admitH(id, iv) {
			s.tracer.Record(at, trace.KindAdmit, id, 0)
		}
		return at
	}

	s.epochLReq++
	if !s.cfg.EnableLCache {
		*served = append(*served, id)
		if end, ok := s.peerServed(at, id); ok {
			return end
		}
		return s.backend.ReadSample(at, id)
	}
	if s.cfg.Packaging == PackagingStatic {
		return s.fetchStaticChunk(at, id, served)
	}

	// Bring the background loader up to the current instant first.
	s.ld.pump(at, s.hlist, s.h, s.l)
	s.ld.deliver(at, s.l)

	if s.l.takeExact(id) {
		s.stats.Hits++
		s.tracer.Record(at, trace.KindHit, id, 0)
		*served = append(*served, id)
		return at + s.cfg.HitLatency
	}
	s.ld.recordMiss(id)

	if s.cfg.Substitute != SubstituteNone && !s.substitutionsDisabled() {
		if sub, ok := s.pickSubstitute(); ok {
			s.stats.Substitutions++
			s.tracer.Record(at, trace.KindSubstitute, id, int64(sub))
			*served = append(*served, sub)
			return at + s.cfg.HitLatency
		}
		// No substitute available: fall through to storage.
	}

	*served = append(*served, id)
	if end, ok := s.peerServed(at, id); ok {
		return end
	}
	return s.backend.ReadSample(at, id)
}

// missOutcome is the distributed mode's answer to a request nothing local
// could serve.
type missOutcome int

const (
	missBackend  missOutcome = iota // no peer holds it: a plain miss
	missPeer                        // a peer's cache served it
	missDegraded                    // a directory or peer fault hid whether one could
)

// peerServed counts a request nothing local could serve as exactly one of
// Hits (a peer served it, at the returned time), Degraded or Misses — the
// one choke point that keeps hits+misses+substitutions+degraded == requests
// exact under any fault schedule. The caller reads the backend unless ok. A
// lone server pays one nil check.
func (s *Server) peerServed(at simclock.Time, id dataset.SampleID) (end simclock.Time, ok bool) {
	if s.onMiss != nil {
		switch end, outcome := s.onMiss(at, id); outcome {
		case missPeer:
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			return end, true
		case missDegraded:
			s.stats.Degraded++
			s.tracer.Record(at, trace.KindMiss, id, 0)
			return at, false
		}
	}
	s.stats.Misses++
	s.tracer.Record(at, trace.KindMiss, id, 0)
	return at, false
}

// servePeer answers another node's read of id from what this node caches,
// as opPeerGetBatch answers from the payload store: no request is counted,
// the loader is not pumped, nothing is admitted. An H-sample is served from
// whichever region holds it; an L-sample once per epoch — the read spends the
// copy's substitution credit, as a local exact hit would, so the one-serve
// rule that preserves sample diversity holds across the cluster.
func (s *Server) servePeer(id dataset.SampleID) bool {
	if s.hlist.Contains(id) {
		return s.h.contains(id) || s.l.contains(id)
	}
	return s.l.takeExact(id)
}

// admitH is Algorithm 1's admission of a fetched H-sample. In the
// distributed mode the directory must grant ownership first (a sample is
// cached on one node only), and a claim the H-heap then has no room for is
// handed back.
func (s *Server) admitH(id dataset.SampleID, iv float64) bool {
	if s.claim != nil && !s.claim(id) {
		return false
	}
	if s.h.offer(id, s.spec.SampleBytes(id), iv) {
		return true
	}
	if s.claim != nil {
		s.release(id)
	}
	return false
}

// promote moves an L-cache resident that the H-list now names into the
// H-cache. The L-side removal fires no eviction hook: the node keeps its one
// copy, and with it the payload bytes and the directory ownership the hook
// would give up. If the H-heap declines, the L copy stays where it is.
func (s *Server) promote(id dataset.SampleID, iv float64) {
	if s.h.offer(id, s.spec.SampleBytes(id), iv) {
		s.l.remove(id)
	}
}

// fetchStaticChunk serves an L-request under static (TFRecord-style)
// pre-packed chunks: exact serving, no substitution, no background loader.
// A miss reads the *entire* fixed chunk holding the sample in the
// foreground — the read amplification §II-C ascribes to static packaging
// under importance sampling — and caches the chunk members for whatever
// reuse survives eviction.
func (s *Server) fetchStaticChunk(at simclock.Time, id dataset.SampleID, served *[]dataset.SampleID) simclock.Time {
	if s.l.contains(id) {
		s.l.takeExact(id) // best effort: mark used if still unused
		s.stats.Hits++
		*served = append(*served, id)
		return at + s.cfg.HitLatency
	}
	chunkSamples := s.ld.pkgBytes / s.spec.MeanSampleBytes
	if chunkSamples < 1 {
		chunkSamples = 1
	}
	first := (int(id) / chunkSamples) * chunkSamples
	last := first + chunkSamples
	if last > s.spec.NumSamples {
		last = s.spec.NumSamples
	}
	total := 0
	for i := first; i < last; i++ {
		total += s.spec.SampleBytes(dataset.SampleID(i))
	}
	*served = append(*served, id)
	if end, ok := s.peerServed(at, id); ok {
		return end
	}
	at = s.backend.ReadPackage(at, total)
	for i := first; i < last; i++ {
		cid := dataset.SampleID(i)
		size := s.spec.SampleBytes(cid)
		if cid == id {
			continue // the requested sample is consumed, not cached
		}
		if s.hlist.Contains(cid) || s.h.contains(cid) || s.l.contains(cid) {
			s.ld.wastedBytes += int64(size)
			continue
		}
		if s.l.insert(cid, size) {
			s.ld.usefulBytes += int64(size)
		}
	}
	return at
}

// hlistValue looks up id's importance value in the active H-list.
func (s *Server) hlistValue(id dataset.SampleID) (float64, bool) {
	iv, ok := s.hlistIV[id]
	return iv, ok
}

// pickSubstitute runs the configured substitute-selection scan and times
// it into subScanHist when attached. Callers check Substitute !=
// SubstituteNone first, so every call performs a real scan and the
// histogram never counts no-op invocations.
func (s *Server) pickSubstitute() (dataset.SampleID, bool) {
	var t0 time.Time
	if s.subScanHist != nil {
		t0 = time.Now()
	}
	var (
		sub dataset.SampleID
		ok  bool
	)
	switch s.cfg.Substitute {
	case SubstituteLCache:
		sub, ok = s.l.substitute(s.rng)
	case SubstituteHCache:
		sub, ok = s.randomHResident()
	}
	s.subScanHist.Since(t0)
	if ok {
		s.noteSubstitution(s.cfg.Substitute)
	}
	return sub, ok
}

// randomHResident picks a uniformly random H-cache resident (only used by
// the SubstituteHCache policy of Table III).
func (s *Server) randomHResident() (dataset.SampleID, bool) {
	return s.h.randomResident(s.rng)
}

// String describes the server configuration.
func (s *Server) String() string {
	return fmt.Sprintf("icache{cap=%dB hshare=%.2f lcache=%v sub=%v}",
		s.cfg.CapacityBytes, s.cfg.HShare, s.cfg.EnableLCache, s.cfg.Substitute)
}
