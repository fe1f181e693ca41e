package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/rpc"
)

// env is what a workload is built from: the seed its inputs derive from,
// whether the stage registry is armed, and the span recorder (nil when the
// run is untraced). smoke selects the test-scale sizes.
type env struct {
	seed   int64
	traced bool
	rec    *recorder
	smoke  bool
}

// workload is one named traffic mix. setup boots the serving stack, dials
// and warms it until it is ready to be measured; measure drives it for
// about d and checks every output; teardown stops everything setup started
// and waits for it.
type workload interface {
	setup() error
	measure(d time.Duration) (*window, error)
	teardown() error
	// sizes reports the final workload sizes for the report header.
	sizes() map[string]float64
	// rounds is how many times the untraced run sets the workload up afresh
	// and measures it, each for an equal share of the run; the reported
	// value is the median round. The saturation workloads settle, per set-up,
	// on a throughput up to a tenth off the next set-up's (scheduler and
	// heap placement on two shared cores), which one longer window cannot
	// average away.
	rounds() int
	// cpuBound says the window is limited by how fast the machine computes,
	// not by sleeps: the two saturation workloads. Such a workload is set up
	// and measured on one P, and its end-to-end numbers are divided by the
	// machine's speed during the round (README: "Why the saturation
	// workloads run on one P" and "Machine speed").
	cpuBound() bool
}

// withProcs switches to the GOMAXPROCS the workload runs under and returns
// that value, for the report, and the call that restores the previous one.
// Client and servers share the process, and with two Ps on two shared cores
// a closed loop's throughput is set by how fast the host wakes an idle core
// for the next hop, not by the program.
func withProcs(w workload) (int, func()) {
	if !w.cpuBound() {
		return runtime.GOMAXPROCS(0), func() {}
	}
	prev := runtime.GOMAXPROCS(1)
	return 1, func() { runtime.GOMAXPROCS(prev) }
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "train_epochs":
		return newTrainEpochs(e), nil
	case "hit_storm":
		return newHitStorm(e), nil
	case "peer_churn":
		return newPeerChurn(e), nil
	case "overload_steps":
		return newOverloadSteps(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"train_epochs", "hit_storm", "peer_churn", "overload_steps"}

// window is everything one measured window produced.
type window struct {
	wall      time.Duration
	samples   int64 // verified samples delivered (on time, where a deadline applies)
	batches   int64 // GetBatch requests that delivered them
	attempted int64 // operations issued
	failed    int64 // operations that failed (see README: what counts)
	batch     lat   // per request: issue (or due time) to verified, ns
	rt        lat   // per request: the client round trip alone, ns
	verifyNs  int64

	// samplesPerS and batchP50 are the workload's own reading of the two
	// universal end-to-end metrics (overload_steps takes them from different
	// phases).
	samplesPerS float64
	batchP50Ms  float64

	extra    map[string]float64 // workload-specific per-layer metrics
	checks   []string           // output checks that failed
	warnings []string           // conditions that make the timings suspect

	before, after   nodeCounts // the node the clients talk to
	procB, procA    procCounts
	retries, redial int64
}

func (w *window) fail(format string, args ...interface{}) {
	w.checks = append(w.checks, fmt.Sprintf(format, args...))
}

func (w *window) warn(format string, args ...interface{}) {
	w.warnings = append(w.warnings, fmt.Sprintf(format, args...))
}

// verifier checks one returned payload against the id it came back under.
type verifier func(id dataset.SampleID, payload []byte) error

// tableVerifier compares whole payloads against copies generated up front.
// The saturation workloads use it: dataset.VerifyPayload regenerates the
// payload on every call, which at 16 KiB a sample would cost more than the
// round trip being measured and hide the hit path behind the client.
func tableVerifier(spec dataset.Spec, ids []dataset.SampleID) verifier {
	want := make(map[dataset.SampleID][]byte, len(ids))
	for _, id := range ids {
		want[id] = spec.Payload(id)
	}
	return func(id dataset.SampleID, p []byte) error {
		w, ok := want[id]
		if !ok {
			return fmt.Errorf("sample %d was never requested", id)
		}
		if !bytes.Equal(w, p) {
			return fmt.Errorf("sample %d: payload differs from the generated one", id)
		}
		return nil
	}
}

// exactBatch fails a response that is not, position by position, the ids
// that were asked for with their own payloads.
func exactBatch(v verifier) func(req []dataset.SampleID, got []rpc.Sample) error {
	return func(req []dataset.SampleID, got []rpc.Sample) error {
		if len(got) != len(req) {
			return fmt.Errorf("got %d samples for %d ids", len(got), len(req))
		}
		for i, s := range got {
			if s.ID != req[i] {
				return fmt.Errorf("position %d: asked for %d, got %d", i, req[i], s.ID)
			}
			if err := v(s.ID, s.Payload); err != nil {
				return err
			}
		}
		return nil
	}
}

// slice is the length of the sub-windows the open loop's goodput is read
// from, satSlice that of the saturation workloads' throughput. The sandbox
// stalls every process for tens of milliseconds a few times a minute and
// runs slower for seconds at a time when its host is busy; a quantile of the
// slices is what the system does between those, where the mean over the
// window would charge them to it.
const (
	slice    = 500 * time.Millisecond
	satSlice = 100 * time.Millisecond
)

// satQuantile is the slice a saturation workload reports: the upper
// quartile. Interference only ever slows a closed loop down, so the slices
// are the program's own rate or less; the upper quartile reads that rate as
// long as a quarter of the window ran undisturbed, the median only while
// half of it did.
const satQuantile = 0.75

// sliceCounts is the number of samples delivered in each slice of a window.
type sliceCounts []int64

// note adds n samples delivered at offset at into a window cut into slices
// of the given width.
func (s *sliceCounts) note(at, width time.Duration, n int64) {
	i := int(at / width)
	for len(*s) <= i {
		*s = append(*s, 0)
	}
	(*s)[i] += n
}

// quantileRate is the q-quantile of the per-second rates of the whole
// slices. The last slice is dropped when the window did not fill it; a
// window shorter than one slice reads its plain mean.
func (s sliceCounts) quantileRate(wall, width time.Duration, q float64) float64 {
	whole := int(wall / width)
	if whole < 1 {
		var total int64
		for _, n := range s {
			total += n
		}
		return ratio(float64(total), secs(wall))
	}
	if whole < len(s) {
		s = s[:whole]
	}
	rates := make([]float64, len(s))
	for i, n := range s {
		rates[i] = float64(n) / secs(width)
	}
	return quantile(rates, q)
}

// issuer is one closed-loop connection's tally.
type issuer struct {
	attempted, failed, batches, samples int64
	batch, rt                           lat
	batchSlice                          []int32 // the slice each entry of batch completed in
	verifyNs                            int64
	firstErr                            error
	perSlice                            sliceCounts
}

// fetch issues one GetBatch, checks the response inside the borrowed-read
// callback (payloads are only valid there), records the request span and
// tallies the outcome. start is the window's start, for the slice counts.
func (t *issuer) fetch(rec *recorder, c *rpc.Client, start time.Time, ids []dataset.SampleID,
	check func([]dataset.SampleID, []rpc.Sample) error) {
	var verify time.Duration
	req := rec.request()
	t0 := time.Now()
	err := c.GetBatchFunc(ids, func(got []rpc.Sample) error {
		tv := time.Now()
		err := check(ids, got)
		verify = time.Since(tv)
		return err
	})
	t1 := time.Now()
	rec.endRequest("rpc.client.get_batch", req, t0, t1)
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.batches++
	t.samples += int64(len(ids))
	t.perSlice.note(t1.Sub(start), satSlice, int64(len(ids)))
	t.batch = append(t.batch, t1.Sub(t0).Nanoseconds())
	t.batchSlice = append(t.batchSlice, int32(t1.Sub(start)/satSlice))
	t.rt = append(t.rt, (t1.Sub(t0) - verify).Nanoseconds())
	t.verifyNs += verify.Nanoseconds()
}

// absorb adds the issuers' tallies to the window and returns their summed
// slice counts.
func (w *window) absorb(tallies []issuer) sliceCounts {
	var perSlice sliceCounts
	for i := range tallies {
		t := &tallies[i]
		for k, n := range t.perSlice {
			if k == len(perSlice) {
				perSlice = append(perSlice, 0)
			}
			perSlice[k] += n
		}
		w.attempted += t.attempted
		w.failed += t.failed
		w.batches += t.batches
		w.samples += t.samples
		w.batch = append(w.batch, t.batch...)
		w.rt = append(w.rt, t.rt...)
		w.verifyNs += t.verifyNs
		if t.firstErr != nil {
			w.fail("connection %d: first failed request: %v", i, t.firstErr)
		}
	}
	return perSlice
}

// closedLoop drives one closed-loop issuer per client for d: each draws a
// batch, fetches and checks it, and only then issues the next. It fills the
// client-side fields of w.
func closedLoop(rec *recorder, clients []*rpc.Client, seed int64, batch int, d time.Duration,
	draw func(*rand.Rand, []dataset.SampleID), check func([]dataset.SampleID, []rpc.Sample) error, w *window) {
	tallies := make([]issuer, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(c *rpc.Client, t *issuer, rng *rand.Rand) {
			defer wg.Done()
			ids := make([]dataset.SampleID, batch)
			for time.Now().Before(stop) {
				draw(rng, ids)
				t.fetch(rec, c, start, ids, check)
			}
		}(c, &tallies[i], rand.New(rand.NewSource(seed+int64(i)*7919)))
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.samplesPerS = w.absorb(tallies).quantileRate(w.wall, satSlice, satQuantile)
	w.batchP50Ms = ms(sliceMedianLatency(tallies, w.wall))
}

// sliceMedianLatency is the latency counterpart of the upper-quartile rate:
// the median request latency of each whole slice, read at the lower quartile
// of the slices. A window shorter than one slice reads its plain median.
func sliceMedianLatency(tallies []issuer, wall time.Duration) float64 {
	whole := int(wall / satSlice)
	bySlice := make([]lat, whole)
	var all lat
	for i := range tallies {
		t := &tallies[i]
		all = append(all, t.batch...)
		for k, ns := range t.batch {
			if sl := int(t.batchSlice[k]); sl < whole {
				bySlice[sl] = append(bySlice[sl], ns)
			}
		}
	}
	var medians []float64
	for _, l := range bySlice {
		if len(l) > 0 {
			medians = append(medians, l.sorted().quantile(0.5))
		}
	}
	if len(medians) == 0 {
		return all.sorted().quantile(0.5)
	}
	return quantile(medians, 1-satQuantile)
}

// checkServed is the conservation check the closed-loop workloads end with:
// the samples the node's policy engine served in the window are the samples
// the clients received.
func (w *window) checkServed() {
	served, received := int64(w.after.requests-w.before.requests), w.samples
	if served == received {
		return
	}
	w.fail("server served %d samples (hits+misses+substitutions+degraded), clients received %d", served, received)
}

// checkClients fails the window if any client retried or redialled: on
// loopback neither has a cause other than a defect.
func (w *window) checkClients(cs []*rpc.Client) {
	w.retries, w.redial = resilience(cs)
	if w.retries != 0 || w.redial != 0 {
		w.fail("clients retried %d and redialled %d times", w.retries, w.redial)
	}
}
