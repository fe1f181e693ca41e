package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/train"
)

// trainEpochs is the cmd/icache-train loop on the wire against a
// latency-charging backend: the paper's I/O-bound regime. Each epoch draws
// an IIS schedule, pushes the H-list, crosses the epoch boundary, fetches
// every batch from two closed-loop workers, verifies every payload and
// feeds the observed losses back into the importance tracker.
type trainEpochs struct {
	e env

	samples, sampleBytes int
	cacheShare           float64
	latency              time.Duration
	workers, batch       int
	warmup               int

	spec    dataset.Spec
	node    *node
	clients []*rpc.Client
	tracker *sampling.Tracker
	loss    *train.LossModel
	rng     *rand.Rand
	epoch   int
}

func newTrainEpochs(e env) *trainEpochs {
	t := &trainEpochs{e: e, samples: 4096, sampleBytes: 4096, cacheShare: 0.2,
		latency: 500 * time.Microsecond, workers: 2, batch: 64, warmup: 3}
	if e.smoke {
		t.samples, t.latency, t.warmup = 512, 50*time.Microsecond, 1
	}
	return t
}

func (*trainEpochs) rounds() int    { return 1 }
func (*trainEpochs) cpuBound() bool { return false }

func (t *trainEpochs) sizes() map[string]float64 {
	return map[string]float64{"samples": float64(t.samples), "sample_bytes": float64(t.sampleBytes),
		"cache_share": t.cacheShare, "backend_latency_us": us(float64(t.latency)),
		"workers": float64(t.workers), "batch": float64(t.batch), "warmup_epochs": float64(t.warmup)}
}

func (t *trainEpochs) setup() error {
	t.spec = dataset.Spec{Name: "bench-train", NumSamples: t.samples, MeanSampleBytes: t.sampleBytes, Seed: 7}
	var err error
	t.node, err = startNode(nodeOpts{spec: t.spec, capacity: int64(float64(t.spec.TotalBytes()) * t.cacheShare),
		lcache: true, latency: t.latency, seed: t.e.seed, traced: t.e.traced, rec: t.e.rec})
	if err != nil {
		return err
	}
	if t.clients, err = dialN(t.node.addr, t.workers, rpc.DialConfig{}); err != nil {
		return err
	}
	if t.tracker, err = sampling.NewTracker(t.spec.NumSamples, 2.3, 0.3); err != nil {
		return err
	}
	if t.loss, err = train.NewLossModel(t.spec, 0); err != nil {
		return err
	}
	t.rng = rand.New(rand.NewSource(t.e.seed))
	// Warm-up epochs fill the cache and let the H-list settle; they run at
	// full backend latency and are charged to set-up.
	var w window
	for i := 0; i < t.warmup; i++ {
		if _, err := t.runEpoch(&w, nil); err != nil {
			return err
		}
	}
	if len(w.checks) > 0 {
		return fmt.Errorf("warm-up: %s", w.checks[0])
	}
	return nil
}

func (t *trainEpochs) teardown() error {
	closeClients(t.clients)
	return t.node.close()
}

// epochTimes is the split of one epoch's wall time.
type epochTimes struct {
	total, schedule, boundary time.Duration
	hlist                     int
	samples                   int64
}

// runEpoch runs one whole epoch and adds its requests to w. A transport or
// protocol error aborts; a wrong output is counted as a failed operation.
func (t *trainEpochs) runEpoch(w *window, rec *recorder) (epochTimes, error) {
	var et epochTimes
	start := time.Now()
	t.loss.BeginEpoch(t.epoch)
	sched, hlist := sampling.IISSchedule(t.tracker, sampling.DefaultIIS(), t.rng)
	et.schedule = time.Since(start)
	et.hlist = hlist.Len()
	rec.child("sampling.iis_schedule", start, start.Add(et.schedule))

	tb := time.Now()
	ctl := t.clients[0]
	if err := ctl.UpdateImportance(hlist.Items); err != nil {
		return et, fmt.Errorf("push H-list: %w", err)
	}
	if err := ctl.BeginEpoch(t.epoch); err != nil {
		return et, fmt.Errorf("begin epoch: %w", err)
	}
	et.boundary = time.Since(tb)
	rec.child("rpc.client.boundary", tb, tb.Add(et.boundary))
	w.attempted += 2

	batches := sched.Batches(t.batch)
	served := make([][]dataset.SampleID, len(batches))
	tallies := make([]issuer, len(t.clients))
	next := make(chan int)
	var wg sync.WaitGroup
	for i, c := range t.clients {
		wg.Add(1)
		go func(c *rpc.Client, tl *issuer) {
			defer wg.Done()
			for bi := range next {
				tl.fetch(rec, c, start, batches[bi], func(ids []dataset.SampleID, ss []rpc.Sample) error {
					got := make([]dataset.SampleID, len(ss))
					for j, s := range ss {
						// Algorithm 1 never substitutes an H-sample.
						if s.ID != ids[j] && hlist.Contains(ids[j]) {
							return fmt.Errorf("H-sample %d was substituted by %d", ids[j], s.ID)
						}
						if err := t.spec.VerifyPayload(s.ID, s.Payload); err != nil {
							return err
						}
						got[j] = s.ID
					}
					served[bi] = got
					return nil
				})
			}
		}(c, &tallies[i])
	}
	for bi := range batches {
		next <- bi
	}
	close(next)
	wg.Wait()
	// "Train" in schedule order, like a loader queue feeding one trainer.
	for _, ids := range served {
		for _, id := range ids {
			t.tracker.Observe(id, t.loss.Train(id))
		}
	}
	for i := range tallies {
		et.samples += tallies[i].samples
	}
	w.absorb(tallies)
	t.epoch++
	et.total = time.Since(start)
	return et, nil
}

// measure runs whole epochs until d has passed (at least one).
func (t *trainEpochs) measure(d time.Duration) (*window, error) {
	w := &window{extra: map[string]float64{}}
	st0, err := t.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	t.node.src.resetPeak()
	w.procB, w.before = readProc(), t.node.counts()
	start := time.Now()
	var epochS, rates, schedMs, boundaryMs []float64
	var hlistLen int
	for time.Since(start) < d || len(epochS) == 0 {
		et, err := t.runEpoch(w, t.e.rec)
		if err != nil {
			return nil, err
		}
		epochS = append(epochS, secs(et.total))
		rates = append(rates, ratio(float64(et.samples), secs(et.total)))
		schedMs = append(schedMs, ms(float64(et.schedule)))
		boundaryMs = append(boundaryMs, ms(float64(et.boundary)))
		hlistLen = et.hlist
	}
	w.wall = time.Since(start)
	w.after, w.procA = t.node.counts(), readProc()
	st1, err := t.clients[0].Stats()
	if err != nil {
		return nil, err
	}

	// The median epoch's rate, so a stall of the sandbox during one epoch
	// does not move the number (see slice in workload.go).
	w.samplesPerS = median(rates)
	w.batchP50Ms = ms(w.batch.sorted().quantile(0.5))
	hits := float64(st1.Hits + st1.Substitutions - st0.Hits - st0.Substitutions)
	served := hits + float64(st1.Misses-st0.Misses)
	w.extra["workload.epochs"] = float64(len(epochS))
	w.extra["workload.epoch_s"] = median(epochS)
	w.extra["workload.hit_ratio"] = ratio(hits, served)
	w.extra["workload.backend_reads_per_sample"] = ratio(float64(w.after.src.calls-w.before.src.calls), float64(w.samples))
	w.extra["sampling.iis_schedule_ms"] = median(schedMs)
	w.extra["sampling.hlist_len"] = float64(hlistLen)
	w.extra["rpc.client.boundary_ms"] = median(boundaryMs)

	// The workload stands for an I/O-bound job; if the process burns a whole
	// core per wall second it has stopped being one.
	if cpu := ratio(secs(w.procA.cpu-w.procB.cpu), secs(w.wall)); cpu >= 1 {
		w.fail("train_epochs used %.2f CPU-seconds per wall second; it is meant to be I/O-bound", cpu)
	}
	w.checkServed()
	w.checkClients(t.clients)
	return w, nil
}
