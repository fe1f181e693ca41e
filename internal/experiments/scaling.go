package experiments

import (
	"fmt"

	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

func init() {
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig15", fig15)
	register("fig16", fig16)
}

// fig12 reproduces Figure 12: single-job multi-GPU training of ResNet50 on
// CIFAR10 under Default vs iCache. The paper: iCache averages 2.3× across
// GPU counts, while Default barely moves because I/O, not compute, bounds
// the epoch.
func fig12(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig12",
		Title:  "Multi-GPU training time per epoch (ResNet50/CIFAR10)",
		Header: []string{"gpus", "default", "icache", "speedup"},
	}
	total, warmup := opts.perfEpochs()
	for _, gpus := range []int{1, 2, 4, 8} {
		mutate := func(c *train.Config) { c.GPUs = gpus }
		def, err := runOne(SchemeDefault, train.ResNet50, opts.cifar(), storage.OrangeFS(), 0.2, total, mutate, opts)
		if err != nil {
			return nil, err
		}
		ic, err := runOne(SchemeICache, train.ResNet50, opts.cifar(), storage.OrangeFS(), 0.2, total, mutate, opts)
		if err != nil {
			return nil, err
		}
		d := steady(def, warmup).AvgEpochTime().Seconds()
		i := steady(ic, warmup).AvgEpochTime().Seconds()
		rep.AddRow(fmt.Sprintf("%d", gpus), fmt.Sprintf("%.3fs", d), fmt.Sprintf("%.3fs", i), fmtX(d/i))
	}
	rep.Notes = append(rep.Notes,
		"paper: iCache ~2.3x at every GPU count; Default's epoch time stays flat as GPUs grow")
	return rep, nil
}

// fig13 reproduces Figure 13: distributed data-parallel training on two and
// four nodes over a shared NFS backend. Each node has one GPU and a cache
// worth 20% of the dataset. The paper reports ≥8.6× (2 nodes) and ≥7.6×
// (4 nodes) over Default, with the 4-node speedup lower because the joint
// cache's hit-ratio advantage shrinks.
func fig13(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig13",
		Title:  "Distributed training over NFS (per-epoch time)",
		Header: []string{"model", "nodes", "default", "icache", "speedup", "icache-hit"},
	}
	total, warmup := opts.perfEpochs()
	spec := opts.cifar()
	perNode := int64(float64(spec.TotalBytes()) * 0.2)
	for _, model := range []train.ModelProfile{train.ResNet18, train.ResNet50} {
		for _, nodes := range []int{2, 4} {
			runDist := func(mk func(*storage.Backend) (train.DistService, error)) (metrics.RunStats, error) {
				back, err := storage.NewBackend(spec, storage.NFS())
				if err != nil {
					return metrics.RunStats{}, err
				}
				svc, err := mk(back)
				if err != nil {
					return metrics.RunStats{}, err
				}
				cfg := train.DefaultConfig(model, spec)
				cfg.Epochs = total
				cfg.Seed = 1 + opts.Seed
				job, err := train.NewDistJob(cfg, svc)
				if err != nil {
					return metrics.RunStats{}, err
				}
				return job.Run(), nil
			}
			def, err := runDist(func(b *storage.Backend) (train.DistService, error) {
				return icache.NewDistDefault(b, nodes, perNode), nil
			})
			if err != nil {
				return nil, err
			}
			ic, err := runDist(func(b *storage.Backend) (train.DistService, error) {
				return icache.NewCluster(b, icache.DefaultClusterConfig(nodes, perNode), sampling.DefaultIIS(), 42+opts.Seed)
			})
			if err != nil {
				return nil, err
			}
			d := steady(def, warmup).AvgEpochTime().Seconds()
			i := steady(ic, warmup).AvgEpochTime().Seconds()
			rep.AddRow(model.Name, fmt.Sprintf("%dS", nodes),
				fmt.Sprintf("%.3fs", d), fmt.Sprintf("%.3fs", i), fmtX(d/i),
				fmtPct(steady(ic, warmup).TotalCache().HitRatio()))
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: >=8.6x (2S) and >=7.6x (4S) over Default; 4S speedup below 2S",
		"the distributed Default duplicates hot samples per node and hammers the single NFS server",
		"reproduction deviates in magnitude (see EXPERIMENTS.md): our first-order NFS model bounds the",
		"speedup near the fetch-count ratio; the paper's >=8.6x likely includes NFS client pathologies")
	return rep, nil
}

// fig15 reproduces Figure 15: sensitivity to the number of prefetching
// workers (ResNet18/CIFAR10). The paper: iCache's speedup decays 3.9×→1.2×
// as workers grow 2→16, because extra workers hide more I/O for Default.
func fig15(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig15",
		Title:  "Worker-count sensitivity (ResNet18/CIFAR10)",
		Header: []string{"workers", "default", "icache", "speedup", "default-stall-frac"},
	}
	total, warmup := opts.perfEpochs()
	for _, workers := range []int{2, 4, 8, 16} {
		mutate := func(c *train.Config) { c.Workers = workers }
		def, err := runOne(SchemeDefault, train.ResNet18, opts.cifar(), storage.OrangeFS(), 0.2, total, mutate, opts)
		if err != nil {
			return nil, err
		}
		ic, err := runOne(SchemeICache, train.ResNet18, opts.cifar(), storage.OrangeFS(), 0.2, total, mutate, opts)
		if err != nil {
			return nil, err
		}
		ds, is := steady(def, warmup), steady(ic, warmup)
		d, i := ds.AvgEpochTime().Seconds(), is.AvgEpochTime().Seconds()
		rep.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.3fs", d), fmt.Sprintf("%.3fs", i), fmtX(d/i),
			fmtPct(float64(ds.AvgIOStall())/float64(ds.AvgEpochTime())))
	}
	rep.Notes = append(rep.Notes,
		"paper: speedup decays 3.9x -> 1.2x as workers grow 2 -> 16; stall fraction falls 96.7% -> 28.9%")
	return rep, nil
}

// fig16 reproduces Figure 16: sensitivity to cache size (ResNet18/CIFAR10,
// 20–80% of the dataset). The paper: iCache keeps ≥1.7× and its hit ratio
// stays ≥1.7× Default's even at 80%.
func fig16(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig16",
		Title:  "Cache-size sensitivity (ResNet18/CIFAR10)",
		Header: []string{"cache", "default", "icache", "speedup", "default-hit", "icache-hit"},
	}
	total, warmup := opts.perfEpochs()
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		def, err := runOne(SchemeDefault, train.ResNet18, opts.cifar(), storage.OrangeFS(), frac, total, nil, opts)
		if err != nil {
			return nil, err
		}
		ic, err := runOne(SchemeICache, train.ResNet18, opts.cifar(), storage.OrangeFS(), frac, total, nil, opts)
		if err != nil {
			return nil, err
		}
		ds, is := steady(def, warmup), steady(ic, warmup)
		d, i := ds.AvgEpochTime().Seconds(), is.AvgEpochTime().Seconds()
		rep.AddRow(fmtPct(frac),
			fmt.Sprintf("%.3fs", d), fmt.Sprintf("%.3fs", i), fmtX(d/i),
			fmtPct(ds.TotalCache().HitRatio()), fmtPct(is.TotalCache().HitRatio()))
	}
	rep.Notes = append(rep.Notes,
		"paper: >=1.7x speedup across 20-80% cache sizes; hit-ratio advantage persists at 80%")
	return rep, nil
}
