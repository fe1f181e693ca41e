package cache

import (
	"math/rand"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// DistDefault is the distributed Default baseline of §V-G: every node runs
// its own uncoordinated LRU cache over the shared backend, uniform sampling,
// no directory — so hot samples end up duplicated across nodes and every
// miss hammers the same NFS server.
type DistDefault struct {
	backend *storage.Backend
	nodes   []*Baseline
}

// NewDistDefault builds the distributed Default baseline with one LRU cache
// of perNodeCapacity bytes per node.
func NewDistDefault(backend *storage.Backend, nodes int, perNodeCapacity int64) *DistDefault {
	d := &DistDefault{backend: backend}
	for n := 0; n < nodes; n++ {
		d.nodes = append(d.nodes, NewDefault(backend, perNodeCapacity))
	}
	return d
}

// Name implements the distributed data-service contract.
func (d *DistDefault) Name() string { return "default-dist" }

// Nodes implements the distributed data-service contract.
func (d *DistDefault) Nodes() int { return len(d.nodes) }

// SubstitutionSource implements the accuracy-model contract.
func (d *DistDefault) SubstitutionSource() string { return "none" }

// Stats implements the distributed data-service contract.
func (d *DistDefault) Stats() metrics.CacheStats {
	var s metrics.CacheStats
	for _, n := range d.nodes {
		s.Add(n.Stats())
	}
	return s
}

// BeginEpoch implements the distributed data-service contract: one global
// uniform permutation; the trainer shards its batches across nodes.
func (d *DistDefault) BeginEpoch(_ simclock.Time, _ int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	return sampling.UniformSchedule(tr.Len(), rng)
}

// FetchBatchOn implements the distributed data-service contract.
func (d *DistDefault) FetchBatchOn(node int, at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	return d.nodes[node].FetchBatch(at, ids)
}
