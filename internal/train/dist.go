package train

import (
	"fmt"
	"math/rand"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

// DistService is the data-service contract for multi-node data-parallel
// training (§III-E / §V-G): one shared schedule per epoch, fetched shard by
// shard on each node. Every iteration waits for the slowest node's shard, so
// a node starved by its shard's I/O stalls the whole job — which is why the
// distributed cache matters. icache.Cluster and the distributed baselines in
// internal/cache implement it.
type DistService interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Nodes reports the cluster size.
	Nodes() int
	// BeginEpoch returns the epoch's global schedule.
	BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule
	// FetchBatchOn simulates node's worker fetching ids from virtual time
	// at.
	FetchBatchOn(node int, at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID)
	// Stats returns cluster-wide cache counters.
	Stats() metrics.CacheStats
}

// NewDistJob builds a job that trains on every node of svc in lockstep:
// batch k is fetched by node k mod Nodes(), and an iteration completes when
// the slowest node's shard has been computed and the gradients all-reduced,
// so a starved node stalls the whole job. cfg.Workers and cfg.GPUs are per
// node (the paper's cloud experiment uses one GPU per node).
func NewDistJob(cfg Config, svc DistService) (*Job, error) {
	if svc.Nodes() <= 0 {
		return nil, fmt.Errorf("train: dist service reports %d nodes", svc.Nodes())
	}
	return newJob(cfg, svc, svc.Nodes(), svc.FetchBatchOn)
}
