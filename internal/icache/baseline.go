package icache

import (
	"fmt"
	"math/rand"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// ScheduleKind selects the sampler a baseline draws its epoch schedules
// from.
type ScheduleKind int

const (
	// ScheduleUniform fetches and trains every sample, in random order.
	ScheduleUniform ScheduleKind = iota
	// ScheduleCIS fetches every sample and trains a subset
	// (computing-oriented importance sampling, sampling.CISSchedule).
	ScheduleCIS
	// ScheduleIIS fetches and trains a subset (sampling.DefaultIIS).
	ScheduleIIS
)

// Baseline is the residency of one of the schemes the paper compares iCache
// against: one classical cache.Policy in place of the H/L split, the sampler
// its epochs draw from, and, for Quiver, the substitution of any resident not
// yet served this epoch for a miss. Oracle is a policy that already holds the
// whole dataset; NoCache is cache.None.
type Baseline struct {
	// Name identifies the scheme in experiment output.
	Name       string
	Policy     *cache.Policy
	Schedule   ScheduleKind
	Substitute bool
}

// baselineState is a baseline server's residency: the policy and Quiver's
// per-epoch substitution pool — the epoch-start residents, shuffled and
// consumed from the tail, each serving at most once, minus those the epoch
// has already served.
type baselineState struct {
	Baseline
	pool []dataset.SampleID
	used map[dataset.SampleID]bool
}

// NewBaselineServer builds the engine for a baseline scheme. Requests run
// fetchOne's baseline branch: a policy hit, then a substitute (Substitute),
// then the backend read and the policy's admission. It serves the
// data-service contract (BeginEpoch, FetchBatch, Stats, Name); it has no H-
// or L-region and no loader, so the serving layer's residency, view and
// checkpoint calls are iCache's alone.
func NewBaselineServer(backend *storage.Backend, b Baseline) *Server {
	base := &baselineState{Baseline: b, used: make(map[dataset.SampleID]bool)}
	s := &Server{spec: backend.Spec(), base: base}
	s.vt = &vtReader{s: s, backend: backend}
	return s
}

// beginBaselineEpoch refills Quiver's pool before it draws the schedule:
// both use the job's rng, in that order.
func (s *Server) beginBaselineEpoch(tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	b := s.base
	if b.Substitute {
		b.used = make(map[dataset.SampleID]bool, b.Policy.Len())
		b.pool = b.Policy.Residents(b.pool[:0])
		rng.Shuffle(len(b.pool), func(i, j int) { b.pool[i], b.pool[j] = b.pool[j], b.pool[i] })
	}
	switch b.Schedule {
	case ScheduleUniform:
		return sampling.UniformSchedule(tr.Len(), rng)
	case ScheduleCIS:
		return sampling.CISSchedule(tr, rng)
	case ScheduleIIS:
		sched, _ := sampling.IISSchedule(tr, sampling.DefaultIIS(), rng)
		return sched
	default:
		panic(fmt.Sprintf("icache: unknown schedule kind %d", b.Schedule))
	}
}

// substitute pops an unserved, still-resident sample from the epoch's pool.
func (b *baselineState) substitute() (dataset.SampleID, bool) {
	for len(b.pool) > 0 {
		id := b.pool[len(b.pool)-1]
		b.pool = b.pool[:len(b.pool)-1]
		if !b.used[id] && b.Policy.Contains(id) {
			return id, true
		}
	}
	return 0, false
}

// DistDefault is the distributed Default baseline of §V-G: every node runs
// its own uncoordinated LRU engine over the shared backend, uniform
// sampling, no directory — so hot samples end up duplicated across nodes and
// every miss hammers the same NFS server.
type DistDefault struct {
	nodes []*Server
}

// NewDistDefault builds the distributed Default baseline with one LRU cache
// of perNodeCapacity bytes per node.
func NewDistDefault(backend *storage.Backend, nodes int, perNodeCapacity int64) *DistDefault {
	d := &DistDefault{}
	for n := 0; n < nodes; n++ {
		d.nodes = append(d.nodes, NewBaselineServer(backend,
			Baseline{Name: "default", Policy: cache.NewLRU(perNodeCapacity)}))
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
