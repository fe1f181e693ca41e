package experiments

import (
	"fmt"

	"icache/internal/cache"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

func init() {
	register("fig14", fig14)
}

// mjScheme labels the four shared-cache policies of §V-H.
type mjScheme string

const (
	mjDefault mjScheme = "Default" // shared LRU, no importance
	mjINDA    mjScheme = "INDA"    // cache managed by ShuffleNet's IVs only
	mjINDB    mjScheme = "INDB"    // cache managed by ResNet50's IVs only
	mjICache  mjScheme = "iCache"  // the §III-D AIV policy
)

// mjResult is one job's outcome under one policy.
type mjResult struct {
	epochSec float64
	hitRatio float64
}

// runMultiJob trains ShuffleNet and ResNet50 concurrently on the same
// CIFAR10 dataset with a shared cache under the given policy.
func runMultiJob(scheme mjScheme, opts Options) (shuffle, resnet mjResult, err error) {
	spec := opts.cifar()
	total, warmup := opts.perfEpochs()
	capBytes := int64(float64(spec.TotalBytes()) * 0.2)

	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		return mjResult{}, mjResult{}, err
	}

	mkJob := func(model train.ModelProfile, svc train.DataService, seed int64) (*train.Job, error) {
		cfg := train.DefaultConfig(model, spec)
		cfg.Epochs = total
		cfg.Seed = seed + opts.Seed
		return train.NewJob(cfg, svc)
	}

	var jobA, jobB *train.Job
	if scheme == mjDefault {
		shared := icache.NewBaselineServer(back, icache.Baseline{Name: string(SchemeDefault), Policy: cache.NewLRU(capBytes)})
		if jobA, err = mkJob(train.ShuffleNet, &sharedLRU{base: shared}, 1); err != nil {
			return mjResult{}, mjResult{}, err
		}
		if jobB, err = mkJob(train.ResNet50, &sharedLRU{base: shared}, 2); err != nil {
			return mjResult{}, mjResult{}, err
		}
	} else {
		srv, err := icache.NewServer(back, icache.DefaultConfig(capBytes), sampling.DefaultIIS(), 42+opts.Seed)
		if err != nil {
			return mjResult{}, mjResult{}, err
		}
		policy := icache.CoordAIV
		if scheme == mjINDA || scheme == mjINDB {
			policy = icache.CoordSingleJob
		}
		coord := icache.NewCoordinator(srv, policy)
		handleA, err := coord.Register("shufflenet", sampling.DefaultIIS())
		if err != nil {
			return mjResult{}, mjResult{}, err
		}
		handleB, err := coord.Register("resnet50", sampling.DefaultIIS())
		if err != nil {
			return mjResult{}, mjResult{}, err
		}
		switch scheme {
		case mjINDA:
			coord.SetFavored(handleA.ID())
		case mjINDB:
			coord.SetFavored(handleB.ID())
		}
		if jobA, err = mkJob(train.ShuffleNet, handleA, 1); err != nil {
			return mjResult{}, mjResult{}, err
		}
		if jobB, err = mkJob(train.ResNet50, handleB, 2); err != nil {
			return mjResult{}, mjResult{}, err
		}
	}

	train.RunConcurrent(jobA, jobB)
	collect := func(j *train.Job) mjResult {
		st := steady(j.Results(), warmup)
		return mjResult{
			epochSec: st.AvgEpochTime().Seconds(),
			hitRatio: st.TotalCache().HitRatio(),
		}
	}
	return collect(jobA), collect(jobB), nil
}

// fig14 reproduces Figure 14: two jobs (ShuffleNet + ResNet50) sharing one
// cache under Default, INDA, INDB, and iCache's multi-job policy. The
// paper: INDx favours its own model and slows the other; iCache minimizes
// joint completion; ShuffleNet (the more I/O-bound job) earns the higher
// hit ratio under iCache.
func fig14(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig14",
		Title:  "Multi-job shared cache: per-epoch time and hit ratio",
		Header: []string{"policy", "shufflenet-time", "resnet50-time", "joint-time", "shufflenet-hit", "resnet50-hit"},
	}
	for _, scheme := range []mjScheme{mjDefault, mjINDA, mjINDB, mjICache} {
		a, b, err := runMultiJob(scheme, opts)
		if err != nil {
			return nil, err
		}
		rep.AddRow(string(scheme),
			fmt.Sprintf("%.3fs", a.epochSec), fmt.Sprintf("%.3fs", b.epochSec),
			fmt.Sprintf("%.3fs", a.epochSec+b.epochSec),
			fmtPct(a.hitRatio), fmtPct(b.hitRatio))
	}
	rep.Notes = append(rep.Notes,
		"paper: INDA speeds ShuffleNet 1.4x over INDB but slows ResNet50 1.2x; iCache has the best joint time",
		"paper: under iCache ShuffleNet gets the higher hit ratio (it benefits more from caching)")
	return rep, nil
}
