package experiments

import (
	"math/rand"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

// sharedLRU is one job's handle on a Default (LRU) engine several jobs
// share — the Fig. 14 "Default" multi-job configuration. It attributes the
// shared cache's events to its own job, mirroring what the
// icache.Coordinator does for the importance-aware policies; BeginEpoch
// reshuffles only its own job's schedule.
type sharedLRU struct {
	base  *icache.Server
	stats metrics.CacheStats
}

// Name implements train.DataService.
func (h *sharedLRU) Name() string { return "default-shared" }

// SubstitutionSource implements the accuracy-model contract.
func (h *sharedLRU) SubstitutionSource() string { return "none" }

// Stats implements train.DataService with per-job attribution.
func (h *sharedLRU) Stats() metrics.CacheStats { return h.stats }

// BeginEpoch implements train.DataService: each job reshuffles its own
// schedule; the shared cache itself is stateless across epochs.
func (h *sharedLRU) BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	return h.base.BeginEpoch(at, epoch, tr, rng)
}

// FetchBatch implements train.DataService, attributing the shared cache's
// event delta to this job.
func (h *sharedLRU) FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	before := h.base.Stats()
	end, served := h.base.FetchBatch(at, ids)
	h.stats.Add(h.base.Stats().Sub(before))
	return end, served
}
