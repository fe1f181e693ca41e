package train

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
)

// DataService is what a training job consumes: a cache scheme — an
// icache.Server running iCache or one of the paper's baselines over a
// cache.Policy (NoCache's policy admits nothing, so every request reads
// storage) — or a multi-job handle on a shared server. Implementations live
// in their own packages; this package only depends on the contract.
type DataService interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// BeginEpoch returns the epoch's fetch/train schedule, drawn from the
	// job's importance tracker, and lets the scheme refresh per-epoch state
	// (H-lists, substitution pools, repartitioning).
	BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule
	// FetchBatch simulates one worker fetching ids sequentially from
	// virtual time at, returning the completion time and the samples
	// actually delivered (substitution may swap IDs).
	FetchBatch(at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID)
	// Stats returns cumulative cache counters.
	Stats() metrics.CacheStats
}

// Config parameterizes one training job.
type Config struct {
	// Model selects the DNN profile (GPU cost, accuracy targets).
	Model ModelProfile
	// Dataset is the training set geometry.
	Dataset dataset.Spec
	// BatchSize is the per-iteration mini-batch size (paper default 256).
	BatchSize int
	// Workers is the number of data-loading workers (paper default 6).
	Workers int
	// GPUs is the data-parallel device count on this node.
	GPUs int
	// Epochs is the number of epochs to simulate.
	Epochs int
	// Seed drives every random choice in the job.
	Seed int64
	// Criterion selects the importance criterion (§VI): loss-based (the
	// paper's default), gradient-upper-bound, or proxy-model scoring.
	Criterion sampling.Criterion
	// EchoFactor enables Google's data echoing (§VII-B related work): while
	// the GPU would stall waiting for the next batch, it re-trains the
	// previous batch up to this many extra times. 0 disables echoing.
	// Echoing trades gradient freshness for stall time; the accuracy model
	// charges the repeated-sample distortion.
	EchoFactor int
}

// DefaultConfig mirrors the paper's training setup for the given model and
// dataset.
func DefaultConfig(model ModelProfile, spec dataset.Spec) Config {
	return Config{
		Model:     model,
		Dataset:   spec,
		BatchSize: 256,
		Workers:   6,
		GPUs:      1,
		Epochs:    10,
		Seed:      1,
	}
}

const (
	// preprocessPerSample is the worker-side CPU cost (decode, augment) per
	// sample, paid after the fetch.
	preprocessPerSample = 25 * time.Microsecond
	// prefetchFactor bounds how many batches each worker may run ahead of
	// the GPU (PyTorch's prefetch_factor).
	prefetchFactor = 2
	// trackerInit and trackerDecay configure the importance tracker.
	trackerInit, trackerDecay = 2.3, 0.3
)

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Dataset.Validate(); err != nil {
		return err
	}
	switch {
	case c.BatchSize <= 0:
		return fmt.Errorf("train: BatchSize=%d, want > 0", c.BatchSize)
	case c.Workers <= 0:
		return fmt.Errorf("train: Workers=%d, want > 0", c.Workers)
	case c.GPUs <= 0:
		return fmt.Errorf("train: GPUs=%d, want > 0", c.GPUs)
	case c.Epochs <= 0:
		return fmt.Errorf("train: Epochs=%d, want > 0", c.Epochs)
	case c.EchoFactor < 0:
		return fmt.Errorf("train: EchoFactor=%d, want >= 0", c.EchoFactor)
	}
	return c.Criterion.Validate()
}

// Job simulates one synchronous data-parallel training job as a resumable
// stepper. An iteration is one mini-batch from every node, trained in
// lockstep: it starts when the slowest node's shard has arrived, lasts as
// long as the slowest shard's compute, then pays the gradient all-reduce
// across nodes. A node starved by its shard's I/O therefore stalls the whole
// job, which is why the distributed cache matters. A single job is the
// one-node case. Each Step advances one data-loading worker by one chunk and
// consumes any iterations that became ready, in order, on the GPUs. Steppers
// let several jobs interleave on a shared virtual timeline (multi-job
// experiments) while a single job just steps to completion.
type Job struct {
	cfg     Config
	svc     epochService
	nodes   int
	fetch   fetchFn
	learner *Learner
	rng     *rand.Rand

	epoch int
	now   simclock.Time // epoch start

	engine  *fetchEngine
	flags   [][]bool
	gpuFree simclock.Time
	gpuDone []simclock.Time // per iteration
	gpuPtr  int             // next iteration the GPUs consume

	// Per-epoch accumulators.
	stall, compute, fetchBusy time.Duration
	fetched                   int
	echoed                    int // sample-trainings performed as data echoes
	// prevCompute/prevTrained describe the last consumed iteration, which
	// data echoing replays during stalls.
	prevCompute       time.Duration
	prevTrained       int
	statsAtEpochStart metrics.CacheStats
	schedFetch        []dataset.SampleID

	run  metrics.RunStats
	done bool
}

// epochService is the part of the service that DataService and DistService
// share; how a batch is fetched is the job's fetchFn.
type epochService interface {
	Name() string
	BeginEpoch(at simclock.Time, epoch int, tr *sampling.Tracker, rng *rand.Rand) sampling.Schedule
	Stats() metrics.CacheStats
}

// NewJob builds a single-node job over the given data service.
func NewJob(cfg Config, svc DataService) (*Job, error) {
	return newJob(cfg, svc, 1, func(_ int, at simclock.Time, ids []dataset.SampleID) (simclock.Time, []dataset.SampleID) {
		return svc.FetchBatch(at, ids)
	})
}

func newJob(cfg Config, svc epochService, nodes int, fetch fetchFn) (*Job, error) {
	subSrc := SubSourceHCache
	if s, ok := svc.(SubstitutionSourcer); ok {
		subSrc = ParseSubSource(s.SubstitutionSource())
	}
	l, err := NewLearner(cfg, subSrc)
	if err != nil {
		return nil, err
	}
	j := &Job{
		cfg:     cfg,
		svc:     svc,
		nodes:   nodes,
		fetch:   fetch,
		learner: l,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		run:     metrics.RunStats{Scheme: svc.Name()},
	}
	j.beginEpoch()
	return j, nil
}

// Tracker exposes the job's importance tracker.
func (j *Job) Tracker() *sampling.Tracker { return j.learner.Tracker() }

// Done reports whether all epochs have completed.
func (j *Job) Done() bool { return j.done }

// Now reports the job's current virtual time (its GPU timeline).
func (j *Job) Now() simclock.Time { return j.gpuFree }

// Results returns the per-epoch statistics collected so far.
func (j *Job) Results() metrics.RunStats { return j.run }

// beginEpoch asks the scheme for a schedule and resets epoch state.
func (j *Job) beginEpoch() {
	j.learner.BeginEpoch(j.epoch)
	sched := j.svc.BeginEpoch(j.now, j.epoch, j.learner.Tracker(), j.rng)
	j.schedFetch = sched.Fetch
	batches := sched.Batches(j.cfg.BatchSize)
	j.flags = j.flags[:0]
	for i := 0; i < len(sched.Fetch); i += j.cfg.BatchSize {
		end := i + j.cfg.BatchSize
		if end > len(sched.Fetch) {
			end = len(sched.Fetch)
		}
		j.flags = append(j.flags, sched.Train[i:end])
	}
	j.gpuFree = j.now
	j.gpuDone = make([]simclock.Time, (len(batches)+j.nodes-1)/j.nodes)
	j.gpuPtr = 0
	j.stall, j.compute, j.fetchBusy = 0, 0, 0
	j.fetched, j.echoed = 0, 0
	j.prevCompute, j.prevTrained = 0, 0
	j.statsAtEpochStart = j.svc.Stats()

	depth := j.cfg.Workers * prefetchFactor // in iterations
	j.engine = newFetchEngine(batches, j.nodes, j.cfg.Workers, j.now, j.fetch,
		func(k int) (simclock.Time, bool) {
			it := k / j.nodes
			if it < depth {
				return j.now, true
			}
			if it-depth < j.gpuPtr {
				return j.gpuDone[it-depth], true
			}
			return 0, false
		},
		preprocessPerSample)
}

// NextEventTime reports when the job's next worker action would start; max
// int64 when the job is done. Multi-job runners use it to pick the job that
// acts next so shared resources see requests in time order.
func (j *Job) NextEventTime() simclock.Time {
	if j.done {
		return math.MaxInt64
	}
	if _, at, ok := j.engine.nextEvent(); ok {
		return at
	}
	return j.gpuFree
}

// Step advances the job by one worker chunk (plus any GPU consumption it
// unlocks). It reports false when the job has finished all its epochs.
func (j *Job) Step() bool {
	if j.done {
		return false
	}
	if w, _, ok := j.engine.nextEvent(); ok {
		_, completed, busy := j.engine.stepWorker(w)
		j.fetchBusy += busy
		if completed {
			j.drainGPU()
		}
	} else {
		// Workers all blocked on gates: the GPU must make progress; if it
		// cannot, the pipeline configuration is broken.
		if !j.drainGPU() {
			panic("train: pipeline deadlock — prefetch depth below worker count?")
		}
	}
	if j.gpuPtr == len(j.gpuDone) {
		j.finishEpoch()
	}
	return !j.done
}

// drainGPU consumes every ready iteration in schedule order, reporting
// whether any progress was made.
func (j *Job) drainGPU() bool {
	progressed := false
	allReduce := j.cfg.Model.AllReduce(j.nodes)
	for j.gpuPtr < len(j.gpuDone) {
		ready, computeT, ok := j.iterationReady(j.gpuPtr)
		if !ok {
			break
		}
		computeStart := j.gpuFree
		if ready > computeStart {
			// Data echoing: replay the previous iteration while the next one
			// is still in flight, up to EchoFactor times, instead of stalling.
			if j.cfg.EchoFactor > 0 && j.prevCompute > 0 {
				for e := 0; e < j.cfg.EchoFactor && computeStart+j.prevCompute+allReduce <= ready; e++ {
					computeStart += j.prevCompute + allReduce
					j.compute += j.prevCompute
					j.echoed += j.prevTrained
				}
			}
			if ready > computeStart {
				j.stall += ready - computeStart
				computeStart = ready
			}
		}
		j.gpuFree = computeStart + computeT + allReduce
		j.gpuDone[j.gpuPtr] = j.gpuFree
		j.compute += computeT

		trainedBefore := j.learner.Trained()
		for k := j.gpuPtr * j.nodes; k < min((j.gpuPtr+1)*j.nodes, len(j.flags)); k++ {
			j.trainBatch(k)
		}
		j.prevCompute, j.prevTrained = computeT, j.learner.Trained()-trainedBefore
		j.gpuPtr++
		progressed = true
	}
	return progressed
}

// iterationReady reports when every shard of iteration it has arrived and
// how long the slowest shard computes; ok is false while a shard is still
// in flight.
func (j *Job) iterationReady(it int) (ready simclock.Time, computeT time.Duration, ok bool) {
	for k := it * j.nodes; k < min((it+1)*j.nodes, len(j.flags)); k++ {
		r, ok := j.engine.batchReady(k)
		if !ok {
			return 0, 0, false
		}
		nTrain := 0
		for _, f := range j.flags[k] {
			if f {
				nTrain++
			}
		}
		var c time.Duration
		if nTrain > 0 {
			c = j.cfg.Model.PerSampleGPU*time.Duration(nTrain)/time.Duration(j.cfg.GPUs) + j.cfg.Model.AllReduce(j.cfg.GPUs)
		}
		ready, computeT = max(ready, r), max(computeT, c)
	}
	return ready, computeT, true
}

// trainBatch hands batch k's served samples to the learner.
func (j *Job) trainBatch(k int) {
	batch, served, flags := j.engine.batches[k], j.engine.servedIDs(k), j.flags[k]
	for i, id := range served {
		j.learner.Train(batch[i], id, flags[i])
	}
	j.fetched += len(batch)
}

// finishEpoch closes out epoch accounting, updates the accuracy model, and
// rolls into the next epoch (or completes the job).
func (j *Job) finishEpoch() {
	top1, top5 := j.learner.EndEpoch(j.schedFetch, j.echoed)
	j.run.Epochs = append(j.run.Epochs, metrics.EpochStats{
		Epoch:          j.epoch,
		Duration:       j.gpuFree - j.now,
		IOStall:        j.stall,
		Compute:        j.compute,
		FetchBusy:      j.fetchBusy,
		SamplesFetched: j.fetched,
		SamplesTrained: j.learner.Trained(),
		Cache:          j.svc.Stats().Sub(j.statsAtEpochStart),
		Top1:           top1,
		Top5:           top5,
	})

	j.epoch++
	j.now = j.gpuFree
	if j.epoch >= j.cfg.Epochs {
		j.done = true
		return
	}
	j.beginEpoch()
}

// Run steps the job to completion and returns its results.
func (j *Job) Run() metrics.RunStats {
	for j.Step() {
	}
	return j.run
}

// RunConcurrent interleaves several jobs on a shared timeline: at each turn
// the job whose next worker action would start earliest acts, so shared
// FIFO resources (storage servers, a shared cache) observe requests in
// virtual-time order. It returns when every job is done.
func RunConcurrent(jobs ...*Job) {
	for {
		best := -1
		var bestT simclock.Time = math.MaxInt64
		for i, j := range jobs {
			if j.done {
				continue
			}
			if t := j.NextEventTime(); t < bestT {
				bestT = t
				best = i
			}
		}
		if best < 0 {
			return
		}
		jobs[best].Step()
	}
}
