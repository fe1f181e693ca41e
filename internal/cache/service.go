package cache

import (
	"fmt"
	"math/rand"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// scheduleKind selects which sampler a baseline uses each epoch.
type scheduleKind int

const (
	scheduleUniform scheduleKind = iota // every sample, random order
	scheduleCIS                         // fetch all, compute subset
	scheduleIIS                         // fetch+compute subset
)

// Baseline is a data service combining one cache policy, one sampler kind,
// and optional Quiver-style substitution or Oracle-style zero I/O. It
// implements the train.DataService contract.
type Baseline struct {
	name       string
	kind       scheduleKind
	policy     Policy
	backend    *storage.Backend
	substitute bool
	zeroIO     bool
	cisCfg     sampling.CISConfig
	iisCfg     sampling.IISConfig

	stats metrics.CacheStats

	// Substitution bookkeeping: a shuffled pool of epoch-start residents,
	// consumed from the tail; each resident substitutes at most once per
	// epoch, and samples used normally are skipped.
	subPool []dataset.SampleID
	used    map[dataset.SampleID]bool
}

// NewDefault returns the paper's Default baseline: PyTorch with a user-level
// LRU cache and uniform sampling.
func NewDefault(backend *storage.Backend, capacityBytes int64) *Baseline {
	return &Baseline{name: "default", kind: scheduleUniform, policy: NewLRU(capacityBytes), backend: backend}
}

// NewBase returns the Base baseline: the Default LRU cache plus
// computing-oriented importance sampling (all samples fetched, fewer
// computed).
func NewBase(backend *storage.Backend, capacityBytes int64, cis sampling.CISConfig) *Baseline {
	return &Baseline{name: "base", kind: scheduleCIS, policy: NewLRU(capacityBytes), backend: backend, cisCfg: cis}
}

// NewQuiver returns the Quiver baseline: uniform sampling over an LRU cache
// with sample substitutability — a miss may be served by any cached sample
// that has not yet been used this epoch, regardless of importance (which is
// exactly the accuracy hazard §II-C calls out).
func NewQuiver(backend *storage.Backend, capacityBytes int64) *Baseline {
	return &Baseline{name: "quiver", kind: scheduleUniform, policy: NewLRU(capacityBytes), backend: backend,
		substitute: true, used: make(map[dataset.SampleID]bool)}
}

// NewCoorDL returns the CoorDL baseline: uniform sampling over a MinIO
// cache that never evicts.
func NewCoorDL(backend *storage.Backend, capacityBytes int64) *Baseline {
	return &Baseline{name: "coordl", kind: scheduleUniform, policy: NewMinIO(capacityBytes), backend: backend}
}

// NewILFU returns the iLFU baseline of §V-C: IIS reduces fetches like
// iCache, but the cache is managed by reactive frequency counts instead of
// importance values.
func NewILFU(backend *storage.Backend, capacityBytes int64, iis sampling.IISConfig) *Baseline {
	return &Baseline{name: "ilfu", kind: scheduleIIS, policy: NewLFU(capacityBytes), backend: backend, iisCfg: iis}
}

// NewWithPolicy returns a uniform-sampling service over an arbitrary
// eviction policy — the building block of the policy-comparison experiment
// (every recency/frequency policy collapses under per-epoch reshuffling).
func NewWithPolicy(backend *storage.Backend, policy Policy) *Baseline {
	return &Baseline{name: "uniform+" + policy.Name(), kind: scheduleUniform, policy: policy, backend: backend}
}

// NewILRU returns the "+IIS" ablation rung of Fig. 10: IIS reduces fetches
// like iCache, but the cache is still a plain LRU with no importance
// awareness and no L-cache.
func NewILRU(backend *storage.Backend, capacityBytes int64, iis sampling.IISConfig) *Baseline {
	return &Baseline{name: "ilru", kind: scheduleIIS, policy: NewLRU(capacityBytes), backend: backend, iisCfg: iis}
}

// NewOracle returns the Oracle configuration: IIS sampling with the whole
// dataset in memory, i.e. the I/O-free lower bound the paper compares
// against in Fig. 8.
func NewOracle(backend *storage.Backend, iis sampling.IISConfig) *Baseline {
	return &Baseline{name: "oracle", kind: scheduleIIS, policy: NewUnbounded(), backend: backend,
		zeroIO: true, iisCfg: iis}
}

// NewNoCache returns a cacheless reader: every request goes to the backend.
// With a Tmpfs backend this is the paper's Fig. 2(a) local-DRAM setup.
func NewNoCache(backend *storage.Backend) *NoCache {
	return &NoCache{backend: backend, kind: scheduleUniform}
}

// NewNoCacheCIS returns a cacheless reader under computing-oriented IS
// (Fig. 2's CIS-on-tmpfs configuration).
func NewNoCacheCIS(backend *storage.Backend, cis sampling.CISConfig) *NoCache {
	return &NoCache{backend: backend, kind: scheduleCIS, cisCfg: cis}
}

// NoCache is a data service with no cache at all.
type NoCache struct {
	backend *storage.Backend
	kind    scheduleKind
	cisCfg  sampling.CISConfig
	stats   metrics.CacheStats
}

// Name implements the data-service contract.
func (n *NoCache) Name() string {
	if n.kind == scheduleCIS {
		return "nocache-cis"
	}
	return "nocache"
}

// Stats implements the data-service contract.
func (n *NoCache) Stats() metrics.CacheStats { return n.stats }

// SubstitutionSource implements the accuracy-model contract.
func (n *NoCache) SubstitutionSource() string { return "none" }

// BeginEpoch implements the data-service contract.
func (n *NoCache) BeginEpoch(_ simclock.Time, _ int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	if n.kind == scheduleCIS {
		return sampling.CISSchedule(tr, n.cisCfg, rng)
	}
	return sampling.UniformSchedule(tr.Len(), rng)
}

// FetchBatch implements the data-service contract.
func (n *NoCache) FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	served := make([]dataset.SampleID, 0, len(ids))
	for _, id := range ids {
		n.stats.Misses++
		at = n.backend.ReadSample(at, id)
		served = append(served, id)
	}
	return at, served
}

// Name identifies the scheme in experiment output.
func (b *Baseline) Name() string { return b.name }

// Stats returns the cumulative cache counters, with evictions taken from
// the underlying policy.
func (b *Baseline) Stats() metrics.CacheStats {
	s := b.stats
	s.Evictions = b.policy.Evictions()
	return s
}

// Policy exposes the underlying eviction policy (tests and ablations).
func (b *Baseline) Policy() Policy { return b.policy }

// SubstitutionSource implements the accuracy-model contract: Quiver's
// substitution is importance-blind, so it carries the H-cache severity
// class; the other baselines never substitute.
func (b *Baseline) SubstitutionSource() string {
	if b.substitute {
		return "hcache"
	}
	return "none"
}

// BeginEpoch produces the epoch schedule and resets per-epoch substitution
// state.
func (b *Baseline) BeginEpoch(_ simclock.Time, _ int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule {
	if b.substitute {
		b.used = make(map[dataset.SampleID]bool, b.policy.Len())
		b.subPool = b.policy.Residents(b.subPool[:0])
		rng.Shuffle(len(b.subPool), func(i, j int) { b.subPool[i], b.subPool[j] = b.subPool[j], b.subPool[i] })
	}
	switch b.kind {
	case scheduleUniform:
		return sampling.UniformSchedule(tr.Len(), rng)
	case scheduleCIS:
		return sampling.CISSchedule(tr, b.cisCfg, rng)
	case scheduleIIS:
		s, _ := sampling.IISSchedule(tr, b.iisCfg, rng)
		return s
	default:
		panic(fmt.Sprintf("cache: unknown schedule kind %d", b.kind))
	}
}

// pickSubstitute pops an unused, still-resident sample from the epoch pool.
func (b *Baseline) pickSubstitute() (dataset.SampleID, bool) {
	for len(b.subPool) > 0 {
		id := b.subPool[len(b.subPool)-1]
		b.subPool = b.subPool[:len(b.subPool)-1]
		if !b.used[id] && b.policy.Contains(id) {
			return id, true
		}
	}
	return 0, false
}

// FetchBatch simulates one worker fetching the batch sequentially starting
// at virtual time at. It returns the completion time and the samples
// actually delivered to the trainer (substitution may swap IDs).
func (b *Baseline) FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
	served := make([]dataset.SampleID, 0, len(ids))
	for _, id := range ids {
		if b.zeroIO {
			b.stats.Hits++
			at += storage.HitLatency
			served = append(served, id)
			continue
		}
		if b.policy.Touch(id) {
			b.stats.Hits++
			at += storage.HitLatency
			if b.substitute {
				b.used[id] = true
			}
			served = append(served, id)
			continue
		}
		if b.substitute {
			if sub, ok := b.pickSubstitute(); ok {
				b.stats.Substitutions++
				b.used[sub] = true
				at += storage.HitLatency
				served = append(served, sub)
				continue
			}
		}
		b.stats.Misses++
		at = b.backend.ReadSample(at, id)
		if b.policy.Admit(id, b.backend.Spec().SampleBytes(id)) {
			b.stats.Inserts++
		} else {
			b.stats.Rejections++
		}
		served = append(served, id)
	}
	return at, served
}
