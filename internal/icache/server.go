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
// Built by NewBaselineServer, the same engine runs one of the paper's
// baselines instead: one cache.Policy takes the H/L split's place.
//
// A Server used by a single job manages its H-list directly from that job's
// importance tracker. Multi-job sharing goes through a Coordinator, which
// feeds the server an aggregated H-list instead (see multijob.go).
type Server struct {
	cfg  Config
	spec dataset.Spec
	iis  sampling.IISConfig
	rng  *rand.Rand
	// base is a baseline scheme's residency (baseline.go); nil runs iCache.
	base *baselineState
	// probeBatches is the per-phase volume of a multi-job benefit probe
	// (probeBatches; white-box tests lower it).
	probeBatches int

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
	onMiss  func(at simclock.Time, id dataset.SampleID) (simclock.Time, bool)
	// readPackage is the package I/O composeNext hands each package to: vt's
	// read, or the reader SetPackageReader installs, which drops vt, the
	// engine's only handle on the storage model (loader.go).
	readPackage func(ids []dataset.SampleID)
	vt          *vtReader

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
	hBytes := int64(float64(cfg.CapacityBytes) * InitialHShare)
	lBytes := cfg.CapacityBytes - hBytes
	if !cfg.EnableLCache {
		hBytes, lBytes = cfg.CapacityBytes, 0
	}
	// The loading unit can never exceed what the L-cache can absorb without
	// destroying unused residents; half the region keeps loading smooth.
	// (The paper instead floors the L-cache at one package; clamping the
	// package handles tiny caches in the same spirit.)
	pkg := packageBytes
	if cfg.EnableLCache && int64(pkg) > lBytes/2 {
		pkg = int(lBytes / 2)
		if pkg < backend.Spec().MeanSampleBytes {
			pkg = backend.Spec().MeanSampleBytes
		}
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Server{
		cfg:          cfg,
		spec:         backend.Spec(),
		iis:          iis,
		rng:          rng,
		h:            newHCache(hBytes),
		l:            newLCache(lBytes),
		ld:           newLoader(backend.Spec(), pkg, rand.New(rand.NewSource(seed+1))),
		hlist:        sampling.NewHList(nil),
		probeBatches: probeBatches,
	}
	s.vt = &vtReader{s: s, backend: backend, repack: repackPerSample}
	s.readPackage = s.vt.read
	if cfg.Tier2Bytes > 0 {
		s.t2 = newTier2(cfg.Tier2Bytes, tier2ReadLatency, tier2Bandwidth)
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
	if s.base != nil {
		return s.base.Name
	}
	if !s.cfg.EnableLCache {
		return "icache-hc" // the +HC ablation rung
	}
	return "icache"
}

// Stats implements the data-service contract.
func (s *Server) Stats() metrics.CacheStats {
	st := s.stats
	if s.base != nil {
		st.Evictions = s.base.Policy.Evictions()
		return st
	}
	st.Inserts = s.h.inserts + s.l.inserts
	st.Evictions = s.h.evictions + s.l.evictions
	return st
}

// SubstitutionSource declares the substitution severity class for the
// accuracy model ("lcache", "hcache", or "none"). Quiver's substitution is
// importance-blind, so it carries the H-cache severity class.
func (s *Server) SubstitutionSource() string {
	if s.base != nil {
		if s.base.Substitute {
			return "hcache"
		}
		return "none"
	}
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
	// Packages counts the packages the loading thread composed (Loading: its
	// reader holds one). LoaderUseful is the bytes delivered into the L-cache;
	// LoaderWasted the bytes static packaging's chunk reads carried that
	// could not be cached (its read amplification; 0 under dynamic packaging).
	Packages                   int64
	Loading                    bool
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
		Loading:      s.ld.inFlight,
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
// per-epoch L-cache state. A baseline draws its own sampler's schedule.
func (s *Server) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	if s.base != nil {
		return s.beginBaselineEpoch(tr, rng)
	}
	sched, hl := sampling.IISSchedule(tr, s.iis, rng)
	if !s.managed {
		s.InstallHList(hl)
	}
	s.startEpoch(at)
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
		s.load(at)
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
	s.h.refreshImportance(s.hlistValue)
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
	s.freqH = freqDecay*s.freqH + (1-freqDecay)*fH
	s.freqL = freqDecay*s.freqL + (1-freqDecay)*fL
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
// at, appending the served IDs into *dst and reusing its capacity. Unlike
// FetchBatch's sequential worker, no sample waits on an earlier one: the RPC
// serving path, which calls this once per request with a pooled scratch
// slice, reads a request's misses concurrently and drives policy time by the
// wall clock. Its package reader loads the L-cache and drops the storage
// model, so no miss is charged on a model there.
func (s *Server) FetchBatchInto(at simclock.Time, ids []dataset.SampleID, dst *[]dataset.SampleID) {
	for _, id := range ids {
		s.fetchOne(at, id, s.hlist, dst)
	}
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
	if b := s.base; b != nil {
		// A baseline: a policy hit, else Quiver's substitute, else the
		// backend read and the policy's admission.
		if b.Policy.Touch(id) {
			s.stats.Hits++
			if b.Substitute {
				b.used[id] = true
			}
			*served = append(*served, id)
			return at + storage.HitLatency
		}
		if b.Substitute {
			if sub, ok := b.substitute(); ok {
				s.stats.Substitutions++
				b.used[sub] = true
				*served = append(*served, sub)
				return at + storage.HitLatency
			}
		}
		end, read := s.miss(at, id, 0, served)
		if read {
			if b.Policy.Admit(id, s.spec.SampleBytes(id)) {
				s.stats.Inserts++
			} else {
				s.stats.Rejections++
			}
		}
		return end
	}
	if routing.Contains(id) {
		s.epochHReq++
		if s.h.contains(id) {
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			*served = append(*served, id)
			return at + storage.HitLatency
		}
		iv, _ := s.hlistValue(id)
		if s.l.contains(id) {
			// Cached as an L-sample in an earlier epoch and since promoted
			// into the H-list: a hit, served from the copy the node has.
			s.promote(id, iv)
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			*served = append(*served, id)
			return at + storage.HitLatency
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
		end, read := s.miss(at, id, 0, served)
		if read && s.admitH(id, iv) {
			s.tracer.Record(end, trace.KindAdmit, id, 0)
		}
		return end
	}

	s.epochLReq++
	if !s.cfg.EnableLCache {
		end, _ := s.miss(at, id, 0, served)
		return end
	}
	if s.cfg.Packaging == PackagingStatic {
		return s.fetchStaticChunk(at, id, served)
	}

	// Land what the loading thread has due first.
	s.load(at)

	if s.l.takeExact(id) {
		s.stats.Hits++
		s.tracer.Record(at, trace.KindHit, id, 0)
		*served = append(*served, id)
		return at + storage.HitLatency
	}
	s.ld.recordMiss(id)

	if s.cfg.Substitute != SubstituteNone && !s.substitutionsDisabled() {
		if sub, ok := s.pickSubstitute(); ok {
			s.stats.Substitutions++
			s.tracer.Record(at, trace.KindSubstitute, id, int64(sub))
			*served = append(*served, sub)
			return at + storage.HitLatency
		}
		// No substitute available: fall through to storage.
	}
	end, _ := s.miss(at, id, 0, served)
	return end
}

// load lands what the virtual-time reader has due by at, then composes the
// next package if none is in flight and the L-cache has room.
func (s *Server) load(at simclock.Time) {
	s.vt.advance(at)
	s.composeNext()
}

// composeNext hands the reader the next package, if none is in flight and
// the L-cache has room for one: the one loading rule, whichever reader reads.
func (s *Server) composeNext() {
	if s.ld.inFlight || s.l.capBytes-s.l.unusedBytes() < int64(s.ld.pkgBytes) {
		return
	}
	if ids, _ := s.ld.composePackage(s.hlist, s.h, s.l); len(ids) > 0 {
		s.ld.inFlight, s.ld.landed = true, false
		s.ld.packages++
		s.readPackage(ids)
	}
}

// SetPackageReader hands package I/O to read in place of the virtual-time
// reader, called under the caller's lock with each package's ids; the reader
// lands them (DeliverMember, EndPackage).
func (s *Server) SetPackageReader(read func(ids []dataset.SampleID)) {
	s.readPackage, s.vt = read, nil
}

// DeliverMember inserts a member of the package in flight into the L-cache,
// evicting as any insert does, unless the H-cache holds it meanwhile; it
// reports whether the member is L-resident. EndPackage ends the package.
func (s *Server) DeliverMember(id dataset.SampleID) bool {
	size := s.spec.SampleBytes(id)
	if s.h.contains(id) || !s.l.insert(id, size) {
		return false
	}
	s.ld.usefulBytes += int64(size)
	s.ld.landed = true
	return true
}

// EndPackage ends the package in flight and, if it landed a member, composes
// the next one at once when the L-cache has room: the loader runs back to
// back. After a package that landed nothing (a sick backend or directory) the
// next L-request composes, so the loader cannot spin.
func (s *Server) EndPackage() {
	s.ld.inFlight = false
	if s.ld.landed {
		s.composeNext()
	}
}

// miss is the one tail of a request nothing local served: id is served as
// itself and counted as exactly one of Hits (a peer served it, at the
// returned time) or Misses — the one choke point that keeps
// hits+misses+substitutions == requests exact. read reports a miss, which the
// virtual-time reader charges (chunk bytes of it under static packaging, 0
// for the sample alone) and the caller may admit.
func (s *Server) miss(at simclock.Time, id dataset.SampleID, chunk int, served *[]dataset.SampleID) (end simclock.Time, read bool) {
	*served = append(*served, id)
	if s.onMiss != nil {
		if end, ok := s.onMiss(at, id); ok {
			s.stats.Hits++
			s.tracer.Record(at, trace.KindHit, id, 0)
			return end, false
		}
	}
	s.stats.Misses++
	s.tracer.Record(at, trace.KindMiss, id, 0)
	return s.vt.readMiss(at, id, chunk), true
}

// servePeer answers another node's read of id from what this node caches,
// as opPeerGetBatch answers from the payload store: no request is counted,
// the loader is not advanced, nothing is admitted. An H-sample is served from
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
		return at + storage.HitLatency
	}
	chunkSamples := max(1, s.ld.pkgBytes/s.spec.MeanSampleBytes)
	first := (int(id) / chunkSamples) * chunkSamples
	last := min(first+chunkSamples, s.spec.NumSamples)
	total := 0
	for i := first; i < last; i++ {
		total += s.spec.SampleBytes(dataset.SampleID(i))
	}
	end, read := s.miss(at, id, total, served)
	if !read {
		return end
	}
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
	return end
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
		sub, ok = s.h.randomResident(s.rng)
	}
	s.subScanHist.Since(t0)
	if ok {
		s.noteSubstitution(s.cfg.Substitute)
	}
	return sub, ok
}

// String describes the server configuration.
func (s *Server) String() string {
	return fmt.Sprintf("icache{cap=%dB hshare=%.2f lcache=%v sub=%v}",
		s.cfg.CapacityBytes, InitialHShare, s.cfg.EnableLCache, s.cfg.Substitute)
}
