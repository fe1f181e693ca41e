package experiments

import (
	"fmt"

	"icache/internal/dataset"
	"icache/internal/storage"
	"icache/internal/train"
)

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig3", fig3)
}

// fig1 reproduces Figure 1: the fraction of training time spent on I/O for
// four CIFAR10 models on four GPUs as batch size grows 256→2048, under the
// Default LRU cache (20%) over OrangeFS. The paper reports the average I/O
// fraction rising from 44% to 89%.
func fig1(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig1",
		Title:  "I/O-time fraction vs batch size (Default, 4 GPUs, OrangeFS)",
		Header: []string{"model", "bs=256", "bs=512", "bs=1024", "bs=2048"},
	}
	total, warmup := opts.perfEpochs()
	batchSizes := []int{256, 512, 1024, 2048}
	var avg [4]float64
	for _, model := range train.CIFARModels() {
		row := []string{model.Name}
		for bi, bs := range batchSizes {
			rs, err := runOne(SchemeDefault, model, opts.cifar(), storage.OrangeFS(), 0.2, total,
				func(c *train.Config) { c.BatchSize = bs; c.GPUs = 4 }, opts)
			if err != nil {
				return nil, err
			}
			st := steady(rs, warmup)
			frac := float64(st.AvgIOStall()) / float64(st.AvgEpochTime())
			avg[bi] += frac / float64(len(train.CIFARModels()))
			row = append(row, fmtPct(frac))
		}
		rep.AddRow(row...)
	}
	rep.AddRow("average", fmtPct(avg[0]), fmtPct(avg[1]), fmtPct(avg[2]), fmtPct(avg[3]))
	rep.Notes = append(rep.Notes, "paper: average I/O fraction rises from 44% (bs=256) to 89% (bs=2048)")
	return rep, nil
}

// fig2 reproduces Figure 2: computing-oriented IS (CIS) vs no IS on (a) a
// local tmpfs without a cache and (b) remote OrangeFS behind a 20% LRU
// cache. CIS helps only in (a): the paper reports 1.2× total on tmpfs and
// just 1.02× on the remote store.
func fig2(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig2",
		Title:  "CIS speedup: local tmpfs vs remote OrangeFS (per-epoch time)",
		Header: []string{"model", "tmpfs", "tmpfs+CIS", "speedup", "remote", "remote+CIS", "speedup"},
	}
	total, warmup := opts.perfEpochs()
	for _, model := range train.CIFARModels() {
		run := func(scheme Scheme, cfg storage.Config) (float64, error) {
			rs, err := runOne(scheme, model, opts.cifar(), cfg, 0.2, total, func(c *train.Config) { c.GPUs = 1 }, opts)
			if err != nil {
				return 0, err
			}
			return steady(rs, warmup).AvgEpochTime().Seconds(), nil
		}
		tmpfs, err := run(SchemeNoCache, storage.Tmpfs())
		if err != nil {
			return nil, err
		}
		tmpfsCIS, err := run(SchemeNoCacheCIS, storage.Tmpfs())
		if err != nil {
			return nil, err
		}
		remote, err := run(SchemeDefault, storage.OrangeFS())
		if err != nil {
			return nil, err
		}
		remoteCIS, err := run(SchemeBase, storage.OrangeFS())
		if err != nil {
			return nil, err
		}
		rep.AddRow(model.Name,
			fmt.Sprintf("%.3fs", tmpfs), fmt.Sprintf("%.3fs", tmpfsCIS), fmtX(tmpfs/tmpfsCIS),
			fmt.Sprintf("%.3fs", remote), fmt.Sprintf("%.3fs", remoteCIS), fmtX(remote/remoteCIS))
	}
	rep.Notes = append(rep.Notes, "paper: CIS gives ~1.2x on tmpfs but only ~1.02x on the remote store")
	return rep, nil
}

// fig3 reproduces Figure 3: the importance value of three tracked samples
// across epochs while training ResNet18 on CIFAR10 with loss-based IS — the
// values must drift, which is the premise of the shadow-heap refresh.
func fig3(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig3",
		Title:  "Importance-value drift of samples 0..2 across epochs (ResNet18/CIFAR10)",
		Header: []string{"epoch", "sample0", "sample1", "sample2"},
	}
	spec := opts.cifar()
	svc, _, err := NewService(SchemeICache, spec, storage.OrangeFS(), 0.2, 42+opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := train.DefaultConfig(train.ResNet18, spec)
	cfg.Epochs = 12
	cfg.Seed = 1 + opts.Seed
	job, err := train.NewJob(cfg, svc)
	if err != nil {
		return nil, err
	}
	tracked := []dataset.SampleID{0, 1, 2}
	epochSeen := 0
	var drift [3]bool
	var prev [3]float64
	for !job.Done() {
		job.Step()
		if got := len(job.Results().Epochs); got > epochSeen {
			epochSeen = got
			row := []string{fmt.Sprintf("%d", epochSeen-1)}
			for i, id := range tracked {
				iv := job.Tracker().Value(id)
				row = append(row, fmt.Sprintf("%.4f", iv))
				if epochSeen > 1 && iv != prev[i] {
					drift[i] = true
				}
				prev[i] = iv
			}
			rep.AddRow(row...)
		}
	}
	for i, d := range drift {
		if !d {
			rep.Notes = append(rep.Notes, fmt.Sprintf("WARNING: sample %d importance never changed", i))
		}
	}
	rep.Notes = append(rep.Notes, "paper: the same sample's importance value varies across epochs")
	return rep, nil
}
