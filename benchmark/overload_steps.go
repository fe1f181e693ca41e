package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/overload"
	"icache/internal/rpc"
)

// overloadSteps offers a slot-limited, all-miss server two fixed request
// rates from an open loop: one well under what its admission slots can
// carry and one well over. Requests launch at their due time whatever is
// still outstanding, and latency counts from the due time.
type overloadSteps struct {
	e env

	samples, sampleBytes int
	cacheShare           float64
	latency              time.Duration
	maxInflight          int
	conns, batch         int
	deadline             time.Duration
	pacedRate, stormRate float64 // requests per second
	warm                 time.Duration

	spec    dataset.Spec
	check   func([]dataset.SampleID, []rpc.Sample) error
	gate    *overload.Gate
	node    *node
	clients []*rpc.Client
	phases  int
}

func newOverloadSteps(e env) *overloadSteps {
	o := &overloadSteps{e: e, samples: 65536, sampleBytes: 1024, cacheShare: 0.25, latency: time.Millisecond,
		maxInflight: 8, conns: 2, batch: 8, deadline: 100 * time.Millisecond,
		pacedRate: 400, stormRate: 1600, warm: 500 * time.Millisecond}
	if e.smoke {
		o.warm = 100 * time.Millisecond
	}
	return o
}

func (*overloadSteps) rounds() int    { return 1 }
func (*overloadSteps) cpuBound() bool { return false }

func (o *overloadSteps) sizes() map[string]float64 {
	return map[string]float64{"samples": float64(o.samples), "sample_bytes": float64(o.sampleBytes),
		"cache_share": o.cacheShare, "backend_latency_us": us(float64(o.latency)),
		"max_inflight": float64(o.maxInflight), "conns": float64(o.conns), "batch": float64(o.batch),
		"deadline_ms": ms(float64(o.deadline)), "paced_req_per_s": o.pacedRate, "storm_req_per_s": o.stormRate}
}

func (o *overloadSteps) setup() error {
	o.spec = dataset.Spec{Name: "bench-overload", NumSamples: o.samples, MeanSampleBytes: o.sampleBytes, Seed: 7}
	o.check = exactBatch(o.spec.VerifyPayload)
	o.gate = overload.NewGate(overload.GateConfig{MaxInflight: o.maxInflight})
	var err error
	o.node, err = startNode(nodeOpts{spec: o.spec, capacity: int64(float64(o.spec.TotalBytes()) * o.cacheShare),
		latency: o.latency, gate: o.gate, seed: o.e.seed, traced: o.e.traced, rec: o.e.rec})
	if err != nil {
		return err
	}
	// The server allows 64 requests in flight per connection; match it so
	// the client never queues what the schedule says is due.
	if o.clients, err = dialN(o.node.addr, o.conns, rpc.DialConfig{MuxInflight: 64}); err != nil {
		return err
	}
	// A short unrecorded paced phase warms connections, pools and timers.
	if ph := o.phase(nil, o.pacedRate, o.warm); ph.failed != 0 {
		return fmt.Errorf("warm-up phase: %d requests failed, the first with: %w", ph.failed, ph.firstErr)
	}
	return nil
}

func (o *overloadSteps) teardown() error {
	closeClients(o.clients)
	return o.node.close()
}

// phaseOut is the generator's ledger of one fixed-rate phase.
type phaseOut struct {
	wall                                 time.Duration
	requests, ok, shed, expired, failed  int64
	okSlices                             sliceCounts // on-time completions
	fromDue, rt, lag                     lat         // ns; fromDue and rt cover on-time requests only
	behind                               int64
	firstErr                             error
	shedServer, expiredServer, servedSrv int64
}

// lagBehind is how late a request may start before it counts as behind
// schedule (time.Sleep alone oversleeps by up to a millisecond here).
// pacedFloor is the on-time share below which the paced phase, offered well
// under half the server's capacity, is flagged.
const (
	lagBehind  = 2 * time.Millisecond
	pacedFloor = 0.9
)

// phase offers rate requests per second for d, split evenly over the
// connections, each on its own fixed schedule. It returns when every
// request it launched has ended.
func (o *overloadSteps) phase(rec *recorder, rate float64, d time.Duration) phaseOut {
	o.phases++
	shed0, exp0 := o.node.srv.OverloadCounters()
	served0 := o.node.srv.TimelinePoint()["requests"]
	interval := time.Duration(float64(time.Second) * float64(len(o.clients)) / rate)
	perConn := int(d / interval)
	var mu sync.Mutex
	var out phaseOut
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for ci, c := range o.clients {
		wg.Add(1)
		go func(c *rpc.Client, first time.Time, rng *rand.Rand) {
			defer wg.Done()
			for k := 0; k < perConn; k++ {
				due := first.Add(time.Duration(k) * interval)
				ids := make([]dataset.SampleID, o.batch)
				for i := range ids {
					ids[i] = dataset.SampleID(rng.Intn(o.samples))
				}
				time.Sleep(time.Until(due))
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithDeadline(context.Background(), due.Add(o.deadline))
					defer cancel()
					var verify time.Duration
					req := rec.request()
					t0 := time.Now()
					err := c.GetBatchFuncCtx(ctx, ids, func(got []rpc.Sample) error {
						tv := time.Now()
						defer func() { verify = time.Since(tv) }()
						return o.check(ids, got)
					})
					t1 := time.Now()
					rec.endRequest("rpc.client.get_batch", req, t0, t1)
					var ra *overload.RetryAfterError
					mu.Lock()
					defer mu.Unlock()
					out.requests++
					out.lag = append(out.lag, t0.Sub(due).Nanoseconds())
					if t0.Sub(due) > lagBehind {
						out.behind++
					}
					switch {
					case err == nil && !t1.After(due.Add(o.deadline)):
						out.ok++
						out.okSlices.note(t1.Sub(start), slice, int64(o.batch))
						out.fromDue = append(out.fromDue, t1.Sub(due).Nanoseconds())
						out.rt = append(out.rt, (t1.Sub(t0) - verify).Nanoseconds())
					case err == nil, errors.Is(err, rpc.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
						out.expired++ // answered late, dropped by the server, or given up on locally
					case errors.As(err, &ra):
						out.shed++
					default:
						out.failed++
						if out.firstErr == nil {
							out.firstErr = err
						}
					}
				}()
			}
		}(c, start.Add(time.Duration(ci)*interval/time.Duration(len(o.clients))),
			rand.New(rand.NewSource(o.e.seed+int64(o.phases)*104729+int64(ci)*7919)))
	}
	wg.Wait()
	out.wall = time.Since(start)
	shed1, exp1 := o.node.srv.OverloadCounters()
	out.shedServer, out.expiredServer = shed1-shed0, exp1-exp0
	out.servedSrv = int64(o.node.srv.TimelinePoint()["requests"] - served0)
	return out
}

// ledger checks one phase's conservation identities: every request the
// generator launched is in exactly one of its buckets, and the server put
// each in exactly one of served, shed and expired. A request the generator
// gave up on (or, after a stall longer than the deadline, never sent) may
// be in any server bucket or none, so the server's total may fall short of
// the launched count by at most the generator's expired count.
func (o *overloadSteps) ledger(w *window, name string, ph phaseOut) {
	if ph.requests != ph.ok+ph.shed+ph.expired+ph.failed {
		w.fail("%s: generator ledger: %d requests != %d ok + %d shed + %d expired + %d failed",
			name, ph.requests, ph.ok, ph.shed, ph.expired, ph.failed)
	}
	launched := ph.requests - ph.failed
	if got := ph.servedSrv/int64(o.batch) + ph.shedServer + ph.expiredServer; got > launched || got < launched-ph.expired {
		w.fail("%s: server ledger: %d served + %d shed + %d expired requests, generator launched %d and gave up on %d",
			name, ph.servedSrv/int64(o.batch), ph.shedServer, ph.expiredServer, launched, ph.expired)
	}
	if ph.shed > ph.shedServer {
		w.fail("%s: generator saw %d shed, server counted %d", name, ph.shed, ph.shedServer)
	}
	if ph.firstErr != nil {
		w.fail("%s: first failed request: %v", name, ph.firstErr)
	}
}

func (o *overloadSteps) measure(d time.Duration) (*window, error) {
	w := &window{extra: map[string]float64{}}
	o.node.src.resetPeak()
	w.procB, w.before = readProc(), o.node.counts()
	start := time.Now()
	paced := o.phase(o.e.rec, o.pacedRate, d/2)
	storm := o.phase(o.e.rec, o.stormRate, d/2)
	w.wall = time.Since(start)
	w.after, w.procA = o.node.counts(), readProc()

	// A shed or expired request is the server doing what it is built to do:
	// it misses the on-time and goodput metrics and is reported as refused,
	// not failed. One scheduler stall of ten milliseconds makes the open
	// loop launch its backlog at once and the gate shed part of it, so a
	// handful of paced refusals is the sandbox, not a defect; the floor
	// below is where it becomes one.
	w.attempted = paced.requests + storm.requests
	w.failed = paced.failed + storm.failed
	w.batches = paced.ok + storm.ok
	w.samples = w.batches * int64(o.batch)
	w.batch = append(append(lat(nil), paced.fromDue...), storm.fromDue...)
	w.rt = append(append(lat(nil), paced.rt...), storm.rt...)

	ps := summarize(paced.fromDue)
	// The median slice, without the first (the pipeline fills) and the last
	// (it drains): what the server sustains between stalls of the sandbox.
	goodput := ratio(float64(storm.ok*int64(o.batch)), secs(storm.wall))
	if sl := storm.okSlices; len(sl) > 2 {
		goodput = sl[1:len(sl)-1].quantileRate(time.Duration(len(sl)-2)*slice, slice, 0.5)
	}
	w.samplesPerS = goodput
	w.batchP50Ms = ms(ps.p50)
	lag := summarize(append(append(lat(nil), paced.lag...), storm.lag...))
	w.extra["workload.paced_p50_ms"] = ms(ps.p50)
	w.extra["workload.paced_p99_ms"] = ms(ps.tail)
	w.extra["workload.paced_ontime_share"] = ratio(float64(paced.ok), float64(paced.requests))
	w.extra["workload.storm_goodput_per_s"] = goodput
	w.extra["workload.storm_p50_ms"] = ms(storm.fromDue.sorted().quantile(0.5))
	w.extra["overload.admitted"] = float64(w.after.gate.Admitted - w.before.gate.Admitted)
	w.extra["overload.refused_share"] = ratio(float64(storm.shed+storm.expired), float64(storm.requests))
	w.extra["overload.brownouts"] = float64(w.after.gate.Brownouts - w.before.gate.Brownouts)
	w.extra["generator.lag_p99_ms"] = ms(lag.tail)
	w.extra["generator.behind_share"] = ratio(float64(paced.behind+storm.behind), float64(w.attempted))

	o.ledger(w, "paced", paced)
	o.ledger(w, "storm", storm)
	// Two conditions say the window measured the sandbox and not the server:
	// a generator that cannot keep its own schedule, and a paced phase,
	// offered under half the capacity, that the server still refuses part of
	// (a stalled host stretches the backend's sleeps until the rate is no
	// longer under capacity). Both are reported; neither is a wrong output,
	// so neither fails the run.
	if l90 := ms(append(append(lat(nil), paced.lag...), storm.lag...).sorted().quantile(0.9)); l90 > 5 {
		w.warn("generator ran %.2f ms late at p90; the run is invalid, not slow", l90)
	}
	if share := ratio(float64(paced.ok), float64(paced.requests)); share < pacedFloor {
		w.warn("paced: only %.4f of requests on time at %.0f requests/s (%d shed, %d expired)",
			share, o.pacedRate, paced.shed, paced.expired)
	}
	w.checkClients(o.clients)
	return w, nil
}
