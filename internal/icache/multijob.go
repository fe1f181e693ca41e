package icache

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

// CoordPolicy selects how a Coordinator manages the shared cache's H-list.
type CoordPolicy int

const (
	// CoordAIV is iCache's §III-D policy: adjusted importance values
	// aggregated over cache-eligible jobs, weighted by caching benefit.
	CoordAIV CoordPolicy = iota
	// CoordSingleJob manages the cache with one job's importance values
	// only — the INDA/INDB baselines of Fig. 14.
	CoordSingleJob
)

// JobID identifies a registered training job on a shared server.
type JobID int

// jobState is the coordinator's view of one job.
type jobState struct {
	id   JobID
	name string
	iis  sampling.IISConfig
	// ownHList is the job's latest importance view, used to route its
	// requests (Algorithm 1 never substitutes what the *job* deems an
	// H-sample, even when the shared cache is managed by other values).
	ownHList *sampling.HList

	benefit  float64
	probed   bool
	eligible bool
	rivs     []float64 // latest percentile vector from the job's tracker

	// Per-epoch benefit probe: phase 0 measures probeTarget() samples
	// served cacheless, phase 1 the same volume through the cache, phase 2
	// runs normally. Volumes are counted in samples (the paper's "20
	// mini-batches" at its default batch size of 256) because the pipeline
	// may deliver requests in sub-batch chunks.
	probePhase int
	probeCount int
	tCacheless time.Duration
	tCache     time.Duration

	stats metrics.CacheStats
}

// Coordinator multiplexes several training jobs onto one iCache server,
// implementing the multi-job handling module of §III-D: per-job caching
// benefit estimation and adjusted-importance-value aggregation.
type Coordinator struct {
	srv    *Server
	policy CoordPolicy
	// favored is the job whose H-list rules under CoordSingleJob.
	favored JobID
	jobs    []*jobState
	nextID  JobID
}

// NewCoordinator wraps srv for multi-job sharing. The server's own H-list
// management is disabled; the coordinator installs aggregated lists.
func NewCoordinator(srv *Server, policy CoordPolicy) *Coordinator {
	srv.SetManaged(true)
	return &Coordinator{srv: srv, policy: policy}
}

// SetFavored selects the job whose importance values manage the cache under
// CoordSingleJob.
func (c *Coordinator) SetFavored(id JobID) { c.favored = id }

// Register adds a job and returns its handle, which implements the
// data-service contract for that job's training pipeline.
func (c *Coordinator) Register(name string, iis sampling.IISConfig) (*JobHandle, error) {
	if err := iis.Validate(); err != nil {
		return nil, err
	}
	j := &jobState{id: c.nextID, name: name, iis: iis, benefit: 1, eligible: true}
	c.nextID++
	c.jobs = append(c.jobs, j)
	return &JobHandle{c: c, j: j}, nil
}

// Server exposes the shared server (experiment output).
func (c *Coordinator) Server() *Server { return c.srv }

// hCapSamples estimates how many samples the combined H-list should cover:
// the H-cache capacity in mean-sized samples.
func (c *Coordinator) hCapSamples() int {
	k := int(c.srv.h.capBytes / int64(c.srv.spec.MeanSampleBytes))
	if k < 1 {
		k = 1
	}
	return k
}

// recompute installs the managed H-list according to the policy.
func (c *Coordinator) recompute() {
	n := c.srv.spec.NumSamples
	aiv := make([]float64, n)
	switch c.policy {
	case CoordSingleJob:
		for _, j := range c.jobs {
			if j.id == c.favored && j.rivs != nil {
				copy(aiv, j.rivs)
			}
		}
	case CoordAIV:
		// The manager only sees H-lists (§III-A), so a job contributes to a
		// sample's AIV only where that sample is on the job's own H-list.
		// Aggregating full percentile vectors instead would promote samples
		// that are mediocre for every job — cached space no job ever
		// routes an H-request to.
		//
		// Cold start: if no job is cache-eligible yet (every benefit probe
		// so far ran against a cold cache), aggregate over all jobs anyway —
		// the cache cannot warm up, and benefits cannot rise, if nothing is
		// ever admitted.
		eligible := c.jobs[:0:0]
		for _, j := range c.jobs {
			if j.eligible && j.rivs != nil && j.ownHList != nil {
				eligible = append(eligible, j)
			}
		}
		if len(eligible) == 0 {
			for _, j := range c.jobs {
				if j.rivs != nil && j.ownHList != nil {
					eligible = append(eligible, j)
				}
			}
		}
		if len(eligible) == 0 {
			return // nothing to manage by yet
		}
		for _, j := range eligible {
			w := j.benefit
			for _, it := range j.ownHList.Items {
				aiv[it.ID] += w * j.rivs[it.ID]
			}
		}
	}

	k := c.hCapSamples()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if aiv[idx[a]] != aiv[idx[b]] {
			return aiv[idx[a]] > aiv[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > n {
		k = n
	}
	items := make([]sampling.Item, k)
	for i := 0; i < k; i++ {
		items[i] = sampling.Item{ID: dataset.SampleID(idx[i]), IV: aiv[idx[i]]}
	}
	c.srv.InstallHList(sampling.NewHList(items))
}

// Benefit reports a job's latest estimated caching benefit and eligibility.
func (c *Coordinator) Benefit(id JobID) (ratio float64, eligible bool, err error) {
	for _, j := range c.jobs {
		if j.id == id {
			return j.benefit, j.eligible, nil
		}
	}
	return 0, false, fmt.Errorf("icache: unknown job %d", id)
}

// JobHandle is one job's data-service view of a shared, coordinated server.
type JobHandle struct {
	c *Coordinator
	j *jobState
}

// ID returns the coordinator-assigned job ID.
func (h *JobHandle) ID() JobID { return h.j.id }

// Name implements the data-service contract.
func (h *JobHandle) Name() string { return "icache-mj:" + h.j.name }

// Stats reports the cache events attributed to this job.
func (h *JobHandle) Stats() metrics.CacheStats { return h.j.stats }

// SubstitutionSource forwards the shared server's substitution class.
func (h *JobHandle) SubstitutionSource() string { return h.c.srv.SubstitutionSource() }

// BeginEpoch implements the data-service contract: the job draws its own
// IIS schedule, publishes its relative importance values, and arms a fresh
// benefit probe; the coordinator then refreshes the shared H-list.
func (h *JobHandle) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	sched, own := sampling.IISSchedule(tr, h.j.iis, rng)
	h.j.ownHList = own
	h.j.rivs = tr.Percentiles()
	if h.c.srv.cfg.ProbeBatches > 0 {
		h.j.probePhase, h.j.probeCount = 0, 0
		h.j.tCacheless, h.j.tCache = 0, 0
	} else {
		h.j.probePhase = 2
	}
	h.c.recompute()
	h.c.srv.startEpoch(at)
	return sched
}

// probeTarget is the per-phase probe volume in samples: the paper's 20
// mini-batches at its default batch size.
func (h *JobHandle) probeTarget() int { return h.c.srv.cfg.ProbeBatches * 256 }

// FetchBatch implements the data-service contract with the benefit probe of
// §III-D layered on top: the first probe volume bypasses the cache entirely
// (measuring T_cacheless), the next goes through it (measuring T_cache),
// and the ratio decides cache eligibility.
func (h *JobHandle) FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	j := h.j
	switch j.probePhase {
	case 0:
		start := at
		served := make([]dataset.SampleID, 0, len(ids))
		for _, id := range ids {
			at = h.c.srv.vt.readMiss(at, id, 0)
			served = append(served, id)
		}
		j.stats.Misses += int64(len(ids))
		j.tCacheless += at - start
		j.probeCount += len(ids)
		if j.probeCount >= h.probeTarget() {
			j.probePhase, j.probeCount = 1, 0
		}
		return at, served
	case 1:
		start := at
		end, served := h.fetchThrough(at, ids)
		j.tCache += end - start
		j.probeCount += len(ids)
		if j.probeCount >= h.probeTarget() {
			j.probePhase = 2
			ratio := benefitThreshold + 1
			if j.tCache > 0 {
				ratio = float64(j.tCacheless) / float64(j.tCache)
			}
			// Smooth across epochs: a single probe is 20 mini-batches and
			// sits right after the epoch boundary, where the substitution
			// pools were just reset, so raw ratios are noisy.
			if j.probed {
				j.benefit = 0.5*j.benefit + 0.5*ratio
			} else {
				j.benefit = ratio
			}
			j.probed = true
			j.eligible = j.benefit >= benefitThreshold
		}
		return end, served
	default:
		return h.fetchThrough(at, ids)
	}
}

// fetchThrough forwards to the shared server with this job's own routing
// list, attributing the cache-event delta to this job.
func (h *JobHandle) fetchThrough(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	routing := h.j.ownHList
	if routing == nil {
		routing = h.c.srv.ActiveHList()
	}
	before := h.c.srv.Stats()
	end, served := h.c.srv.FetchBatchRouted(at, ids, routing)
	h.j.stats.Add(h.c.srv.Stats().Sub(before))
	return end, served
}
