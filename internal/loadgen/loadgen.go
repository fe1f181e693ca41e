// Package loadgen is the open-loop load harness for the iCache serving
// path: it drives a server with a fixed arrival schedule (requests are
// issued when the schedule says so, never when the previous response
// happens to return) and measures latency from each request's *scheduled*
// start. That makes the numbers coordinated-omission-safe: when the server
// stalls, the requests that should have been issued during the stall still
// count their queueing delay, instead of silently thinning the arrival
// stream the way a closed loop does (the wrk2 argument).
//
// Latencies record into the lock-striped, allocation-free obs.Histogram,
// so the harness itself stays off the profile at six-figure request rates.
// cmd/icache-loadgen wraps this package in flags; the Loadgen benchmark in
// bench_test.go drives it at saturation.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the cache server's TCP address.
	Addr string
	// Conns is the number of client connections (each with its own issuing
	// goroutine and arrival schedule). Default 8.
	Conns int
	// Batch is the GetBatch size. Default 16.
	Batch int
	// Rate is the offered load in samples/sec across all connections.
	// <= 0 means saturation: requests are scheduled back-to-back, which
	// degenerates into a closed loop probing the server's capacity.
	Rate float64
	// Duration bounds the measured run in wall time (0 = unbounded; then
	// MaxRequests must be set).
	Duration time.Duration
	// MaxRequests bounds the measured run in issued requests across all
	// connections (0 = unbounded; then Duration must be set).
	MaxRequests int64
	// Mix selects the key distribution: "uniform", "zipf" (rank-frequency
	// skew ZipfS), or "diurnal" (a hot window rotating over the keyspace,
	// the shift-change pattern of a shared training cluster). Default zipf.
	Mix string
	// ZipfS is the zipf skew exponent (> 1). Default 1.2.
	ZipfS float64
	// Keys is the requested keyspace: ids are drawn from [0, Keys).
	Keys int
	// Seed makes the uniform/zipf arrival sequence deterministic.
	Seed int64
	// Warmup runs the same workload unrecorded for this long before the
	// measured run (cache fill, connection establishment, JIT-ish warmth).
	Warmup time.Duration
	// DialTimeout bounds each connection dial. Default 5s.
	DialTimeout time.Duration
	// Deadline is the per-request budget, measured from each request's
	// SCHEDULED start (open-loop: a request issued late has already burned
	// part of its budget). The budget propagates to the server in the wire
	// envelope, so overloaded servers drop unservable work instead of
	// answering it late. 0 = no deadline (the historic behavior).
	Deadline time.Duration

	// EpochSamples > 0 switches the harness to epoch-boundary mode: instead
	// of an unbounded arrival stream, each epoch draws a fresh per-epoch
	// selection of EpochSamples ids from [0, Keys) (seeded permutation, so
	// successive epochs overlap partially — the churn a cross-epoch
	// prefetcher has to cover), pushes it as the job's H-list, crosses an
	// epoch boundary, then accesses the selection exactly once, paced at
	// Rate. The report carries cold misses (demand-path backend reads) per
	// epoch. Mix/Duration/MaxRequests are ignored in this mode.
	EpochSamples int
	// Epochs is how many epochs the epoch-boundary mode runs. Default 5.
	Epochs int
	// Clairvoyant pushes each epoch's schedule to the server ahead of its
	// accesses (BeginEpochPlan) from the SECOND epoch on — the first epoch
	// is always a cold reactive baseline. Off: plain BeginEpoch boundaries.
	Clairvoyant bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		return c, fmt.Errorf("loadgen: Addr required")
	}
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Mix == "" {
		c.Mix = "zipf"
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Keys <= 0 {
		return c, fmt.Errorf("loadgen: Keys must be > 0")
	}
	if c.EpochSamples > 0 {
		if c.EpochSamples > c.Keys {
			return c, fmt.Errorf("loadgen: EpochSamples %d exceeds Keys %d", c.EpochSamples, c.Keys)
		}
		if c.Epochs <= 0 {
			c.Epochs = 5
		}
	} else if c.Duration <= 0 && c.MaxRequests <= 0 {
		return c, fmt.Errorf("loadgen: one of Duration or MaxRequests must be set")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	return c, nil
}

// Report is the outcome of one load run. All latency figures are measured
// from the scheduled start of each request (coordinated-omission-safe).
type Report struct {
	Conns       int     `json:"conns"`
	Batch       int     `json:"batch"`
	Mix         string  `json:"mix"`
	Keys        int     `json:"keys"`
	OfferedRate float64 `json:"offered_samples_per_sec,omitempty"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Requests       int64   `json:"requests"`
	Samples        int64   `json:"samples"`
	// Errors counts transport-level failures only. Overload rejections are
	// classed separately below — a server that sheds cleanly under storm is
	// behaving, not erroring, and the distinction is the whole point of the
	// overload harness: Requests == successes + Errors + Shed + Expired.
	Errors int64 `json:"errors"`
	// Shed counts requests the server rejected with a retry-after hint
	// (admission control working as designed). Always present — a zero
	// here under a storm is itself a finding (the gate never engaged).
	Shed int64 `json:"shed"`
	// Expired counts requests whose deadline budget ran out — dropped
	// server-side (statusExpired) or timed out locally. Always present,
	// so the shed/expired split is visible even when one side is zero.
	Expired int64 `json:"expired"`
	// WarmupRequests counts requests issued and DISCARDED during the
	// warmup phase — they primed caches and connections but are in none
	// of the figures above.
	WarmupRequests int64 `json:"warmup_requests"`
	// Behind counts requests that were issued late (the scheduled instant
	// had already passed — the server, not the generator, was the
	// bottleneck). At saturation every request is behind.
	Behind        int64   `json:"behind"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// GoodputPerSec is on-time samples/sec: completions that landed within
	// the deadline budget, measured from the scheduled start. With no
	// deadline configured every completion is on time and goodput equals
	// throughput. Under a 2x overload storm this is THE health metric —
	// raw throughput can stay flat while every response arrives uselessly
	// late.
	GoodputPerSec float64 `json:"goodput_samples_per_sec"`

	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`

	// Epoch-boundary mode (EpochSamples > 0) only.
	Epochs       int  `json:"epochs,omitempty"`
	EpochSamples int  `json:"epoch_samples,omitempty"`
	Clairvoyant  bool `json:"clairvoyant,omitempty"`
	// EpochMisses is the number of cold misses (demand-path backend reads,
	// from the server's DemandFetches counter) each epoch incurred. The
	// first epoch is always a cold baseline; a working clairvoyant plan
	// drives the later entries toward zero.
	EpochMisses []int64 `json:"epoch_cold_misses,omitempty"`
}

// JSON renders the report as indented JSON.
func (r Report) JSON() []byte {
	out, _ := json.MarshalIndent(r, "", "  ")
	return append(out, '\n')
}

// Run executes one load run and reports its measurements. The runner
// dials Conns connections, replays Warmup unrecorded, then issues requests
// on each connection's fixed schedule until Duration or MaxRequests is
// exhausted, whichever comes first.
func Run(cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}

	conns := make([]*rpc.Client, cfg.Conns)
	for i := range conns {
		c, err := rpc.Dial(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			for _, p := range conns[:i] {
				p.Close()
			}
			return Report{}, fmt.Errorf("loadgen: dial conn %d: %w", i, err)
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	if cfg.EpochSamples > 0 {
		return runEpochs(cfg, conns)
	}

	// Per-connection inter-arrival gap: the total offered rate split
	// evenly. Zero gap = saturation probing.
	var interval time.Duration
	if cfg.Rate > 0 {
		perConnReqRate := cfg.Rate / float64(cfg.Batch) / float64(cfg.Conns)
		interval = time.Duration(float64(time.Second) / perConnReqRate)
	}

	var warmupIssued int64
	if cfg.Warmup > 0 {
		warmupIssued = runPhase(cfg, conns, interval, cfg.Warmup, 0, nil)
	}

	hist := obs.NewHistogram()
	counters := &runCounters{}
	start := time.Now()
	runPhase(cfg, conns, interval, cfg.Duration, cfg.MaxRequests, &measured{hist: hist, c: counters})
	elapsed := time.Since(start).Seconds()

	rep := Report{
		Conns:          cfg.Conns,
		Batch:          cfg.Batch,
		Mix:            cfg.Mix,
		Keys:           cfg.Keys,
		OfferedRate:    cfg.Rate,
		ElapsedSeconds: elapsed,
		Requests:       atomic.LoadInt64(&counters.requests),
		Samples:        atomic.LoadInt64(&counters.samples),
		Errors:         atomic.LoadInt64(&counters.errors),
		Shed:           atomic.LoadInt64(&counters.shed),
		Expired:        atomic.LoadInt64(&counters.expired),
		Behind:         atomic.LoadInt64(&counters.behind),
		WarmupRequests: warmupIssued,
	}
	if elapsed > 0 {
		rep.SamplesPerSec = float64(rep.Samples) / elapsed
		rep.GoodputPerSec = float64(atomic.LoadInt64(&counters.goodSamples)) / elapsed
	}
	snap := hist.Snapshot()
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.LatencyMeanMs = toMs(snap.Mean())
	rep.LatencyP50Ms = toMs(snap.P50())
	rep.LatencyP95Ms = toMs(snap.P95())
	rep.LatencyP99Ms = toMs(snap.P99())
	rep.LatencyMaxMs = toMs(snap.Max())
	return rep, nil
}

// epochSchedule draws epoch e's selected sample set: a seeded permutation
// of the keyspace truncated to EpochSamples. Successive epochs reshuffle,
// so the selections overlap partially — the cross-epoch churn that makes
// reactive caching miss every epoch.
func epochSchedule(cfg Config, e int) []dataset.SampleID {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(e)))
	perm := rng.Perm(cfg.Keys)
	sched := make([]dataset.SampleID, cfg.EpochSamples)
	for i := range sched {
		sched[i] = dataset.SampleID(perm[i])
	}
	return sched
}

// runEpochs is the epoch-boundary mode: per epoch it pushes the selection
// as the H-list, crosses a boundary (clairvoyantly from epoch 2 on when
// configured), accesses the selection once at the offered rate, and
// records the epoch's cold misses from the server's demand-fetch counter.
func runEpochs(cfg Config, conns []*rpc.Client) (Report, error) {
	ctrl := conns[0]
	hist := obs.NewHistogram()
	counters := &runCounters{}
	m := &measured{hist: hist, c: counters}

	st, err := ctrl.Stats()
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: baseline stats: %w", err)
	}
	base := st.DemandFetches

	misses := make([]int64, 0, cfg.Epochs)
	start := time.Now()
	for e := 0; e < cfg.Epochs; e++ {
		sched := epochSchedule(cfg, e)
		items := make([]sampling.Item, len(sched))
		for i, id := range sched {
			// Descending IV in first-access order: every selected sample is
			// an H-sample this epoch, earlier accesses more important.
			items[i] = sampling.Item{ID: id, IV: float64(len(sched) - i)}
		}
		if err := ctrl.UpdateImportance(items); err != nil {
			return Report{}, fmt.Errorf("loadgen: epoch %d importance push: %w", e+1, err)
		}
		if cfg.Clairvoyant && e > 0 {
			// The schedule is known before the epoch starts (the IIS
			// premise); hand it to the server with the boundary.
			err = ctrl.BeginEpochPlan(e+1, sched)
		} else {
			err = ctrl.BeginEpoch(e + 1)
		}
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: epoch %d boundary: %w", e+1, err)
		}
		issueSchedule(cfg, conns, sched, m)
		if st, err = ctrl.Stats(); err != nil {
			return Report{}, fmt.Errorf("loadgen: epoch %d stats: %w", e+1, err)
		}
		misses = append(misses, st.DemandFetches-base)
		base = st.DemandFetches
	}
	// One final boundary settles the prefetch-outcome ledger: pending
	// tokens of the last epoch sweep to wasted, making the conservation
	// identity exact for callers that assert it.
	if err := ctrl.BeginEpoch(cfg.Epochs + 1); err != nil {
		return Report{}, fmt.Errorf("loadgen: settling boundary: %w", err)
	}
	elapsed := time.Since(start).Seconds()

	rep := Report{
		Conns:        cfg.Conns,
		Batch:        cfg.Batch,
		Mix:          "epoch",
		Keys:         cfg.Keys,
		OfferedRate:  cfg.Rate,
		Epochs:       cfg.Epochs,
		EpochSamples: cfg.EpochSamples,
		Clairvoyant:  cfg.Clairvoyant,
		EpochMisses:  misses,

		ElapsedSeconds: elapsed,
		Requests:       atomic.LoadInt64(&counters.requests),
		Samples:        atomic.LoadInt64(&counters.samples),
		Errors:         atomic.LoadInt64(&counters.errors),
		Shed:           atomic.LoadInt64(&counters.shed),
		Expired:        atomic.LoadInt64(&counters.expired),
		Behind:         atomic.LoadInt64(&counters.behind),
	}
	if elapsed > 0 {
		rep.SamplesPerSec = float64(rep.Samples) / elapsed
		rep.GoodputPerSec = float64(atomic.LoadInt64(&counters.goodSamples)) / elapsed
	}
	snap := hist.Snapshot()
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.LatencyMeanMs = toMs(snap.Mean())
	rep.LatencyP50Ms = toMs(snap.P50())
	rep.LatencyP95Ms = toMs(snap.P95())
	rep.LatencyP99Ms = toMs(snap.P99())
	rep.LatencyMaxMs = toMs(snap.Max())
	return rep, nil
}

// issueSchedule accesses one epoch's selection exactly once, in schedule
// order, batches rotating over the connections, paced open-loop at the
// offered rate (Rate <= 0 degenerates to back-to-back issue — which gives
// a clairvoyant plan no lead time to work ahead of).
func issueSchedule(cfg Config, conns []*rpc.Client, sched []dataset.SampleID, m *measured) {
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Batch) / cfg.Rate * float64(time.Second))
	}
	start := time.Now()
	var got int64
	sink := func(samples []rpc.Sample) error {
		got = int64(len(samples))
		return nil
	}
	for k, off := 0, 0; off < len(sched); k, off = k+1, off+cfg.Batch {
		end := off + cfg.Batch
		if end > len(sched) {
			end = len(sched)
		}
		ids := sched[off:end]
		schedAt := time.Now()
		if interval > 0 {
			schedAt = start.Add(interval * time.Duration(k))
			if wait := time.Until(schedAt); wait > 0 {
				time.Sleep(wait)
			} else {
				atomic.AddInt64(&m.c.behind, 1)
			}
		}
		got = 0
		err := conns[k%len(conns)].GetBatchFunc(ids, sink)
		lat := time.Since(schedAt)
		m.hist.Record(lat)
		atomic.AddInt64(&m.c.requests, 1)
		if err != nil {
			var ra *overload.RetryAfterError
			switch {
			case errors.As(err, &ra):
				atomic.AddInt64(&m.c.shed, 1)
			case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
				atomic.AddInt64(&m.c.expired, 1)
			default:
				atomic.AddInt64(&m.c.errors, 1)
			}
			continue
		}
		atomic.AddInt64(&m.c.samples, got)
		atomic.AddInt64(&m.c.goodSamples, got)
	}
}

// runCounters aggregates the run's atomics.
type runCounters struct {
	requests    int64
	samples     int64
	errors      int64
	shed        int64
	expired     int64
	goodSamples int64
	behind      int64
}

// measured carries the recording sinks of the measured phase (nil during
// warmup: same loop, nothing recorded).
type measured struct {
	hist *obs.Histogram
	c    *runCounters
}

// runPhase drives every connection for one phase (warmup or measured) and
// reports how many requests it actually issued (the warmup-discard count
// when m is nil). budget is the shared request budget (0 = unbounded).
func runPhase(cfg Config, conns []*rpc.Client, interval, duration time.Duration, budget int64, m *measured) int64 {
	var issued int64 // shared budget counter
	var sent int64   // requests actually put on the wire this phase
	start := time.Now()
	var deadline time.Time
	if duration > 0 {
		deadline = start.Add(duration)
	}
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn *rpc.Client) {
			defer wg.Done()
			mix := newMix(cfg, i, start)
			ids := make([]dataset.SampleID, cfg.Batch)
			// Borrowed-read sink: counts the batch without retaining the
			// samples, so the client recycles each response frame and the
			// lane stays allocation-free per request. One closure per lane,
			// hoisted out of the issue loop.
			var got int64
			sink := func(samples []rpc.Sample) error {
				got = int64(len(samples))
				return nil
			}
			// Stagger connection phases so arrivals interleave instead of
			// thundering together at each tick.
			offset := time.Duration(0)
			if interval > 0 {
				offset = interval * time.Duration(i) / time.Duration(len(conns))
			}
			for k := int64(0); ; k++ {
				// At saturation (no interval) the schedule degenerates to
				// "now": the loop is closed and latency equals service time.
				var sched time.Time
				if interval > 0 {
					sched = start.Add(offset + interval*time.Duration(k))
				} else {
					sched = time.Now()
				}
				if !deadline.IsZero() && sched.After(deadline) {
					return
				}
				if budget > 0 && atomic.AddInt64(&issued, 1) > budget {
					return
				}
				now := time.Now()
				if wait := sched.Sub(now); wait > 0 {
					time.Sleep(wait)
				} else if m != nil {
					atomic.AddInt64(&m.c.behind, 1)
				}
				mix.fill(ids)
				got = 0
				atomic.AddInt64(&sent, 1)
				var err error
				if cfg.Deadline > 0 {
					// The budget runs from the SCHEDULED start: a request that
					// sat behind a stalled server has already spent part of it.
					rctx, cancel := context.WithDeadline(context.Background(), sched.Add(cfg.Deadline))
					err = conn.GetBatchFuncCtx(rctx, ids, sink)
					cancel()
				} else {
					err = conn.GetBatchFunc(ids, sink)
				}
				if m == nil {
					continue
				}
				// Open-loop latency: completion minus *scheduled* start, so
				// time spent waiting behind a stalled server is charged to
				// every request the stall delayed.
				lat := time.Since(sched)
				m.hist.Record(lat)
				atomic.AddInt64(&m.c.requests, 1)
				if err != nil {
					// Overload rejections are the server protecting itself, not
					// transport failures; count them apart so the error column
					// stays a real alarm signal.
					var ra *overload.RetryAfterError
					switch {
					case errors.As(err, &ra):
						atomic.AddInt64(&m.c.shed, 1)
					case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
						atomic.AddInt64(&m.c.expired, 1)
					default:
						atomic.AddInt64(&m.c.errors, 1)
					}
					continue
				}
				atomic.AddInt64(&m.c.samples, got)
				if cfg.Deadline <= 0 || lat <= cfg.Deadline {
					atomic.AddInt64(&m.c.goodSamples, got)
				}
			}
		}(i, conn)
	}
	wg.Wait()
	return atomic.LoadInt64(&sent)
}
