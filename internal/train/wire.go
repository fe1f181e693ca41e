package train

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/transport"
)

// WireEpoch is one epoch a Learner trained against a cache server.
type WireEpoch struct {
	// Planned reports whether the boundary carried the epoch's schedule: a
	// server that rejects the plan opcode gets a plain boundary instead.
	Planned     bool
	Trained     int
	Substituted int
	Bytes       int64
	Elapsed     time.Duration // first fetch to last trained sample
	Top1, Top5  float64
	// Server holds the server's counters as the epoch's growth (Hits,
	// Misses, Substitutions, Packages, and DemandFetches: the epoch's cold
	// misses), and the H- and L-cache lengths at its end.
	Server rpc.Stats
}

// RunWireEpoch trains epoch through l against the cache server behind
// conns, the way the paper's client does. It draws the IIS schedule, pushes
// the H-list and crosses the boundary, with the schedule attached
// (BeginEpochPlan) when plan is set. One worker per connection fetches
// batches of batch samples; every payload is verified against the
// learner's dataset, and the batches train in schedule order.
func RunWireEpoch(l *Learner, rng *rand.Rand, conns []*rpc.Client, epoch, batch int, plan bool) (WireEpoch, error) {
	c := conns[0]
	before, err := c.Stats()
	if err != nil {
		return WireEpoch{}, fmt.Errorf("stats: %w", err)
	}
	l.BeginEpoch(epoch)
	sched, hlist := sampling.IISSchedule(l.Tracker(), sampling.DefaultIIS(), rng)
	if err := c.UpdateImportance(hlist.Items); err != nil {
		return WireEpoch{}, fmt.Errorf("push H-list: %w", err)
	}
	if plan {
		// An older or non-planning server rejects the opcode with an
		// application error; cross a plain boundary instead, so planning
		// is safe against any server.
		err = c.BeginEpochPlan(epoch, sched.Fetch)
		var se *transport.ServerError
		plan = !errors.As(err, &se)
	}
	if !plan {
		err = c.BeginEpoch(epoch)
	}
	if err != nil {
		return WireEpoch{}, fmt.Errorf("begin epoch: %w", err)
	}

	ep := WireEpoch{Planned: plan}
	start := time.Now()
	batches := sched.Batches(batch)
	type result struct {
		samples []rpc.Sample
		err     error
	}
	// Workers fetch batches concurrently; results come back in order so
	// samples are trained in schedule order, like a real loader queue. On
	// return next moves past the last batch, so each worker stops after the
	// batch it holds, and the function waits for them.
	results := make([]chan result, len(batches))
	for i := range results {
		results[i] = make(chan result, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer next.Store(int64(len(batches)))
	for _, w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(batches)); i = next.Add(1) - 1 {
				samples, err := w.GetBatch(batches[i])
				results[i] <- result{samples, err}
			}
		}()
	}
	for i, ids := range batches {
		r := <-results[i]
		if r.err != nil {
			return ep, fmt.Errorf("fetch: %w", r.err)
		}
		for k, s := range r.samples {
			if err := l.cfg.Dataset.VerifyPayload(s.ID, s.Payload); err != nil {
				return ep, fmt.Errorf("corrupt sample: %w", err)
			}
			ep.Bytes += int64(len(s.Payload))
			l.Train(ids[k], s.ID, true)
		}
	}
	ep.Elapsed = time.Since(start)
	ep.Trained, ep.Substituted = l.Trained(), l.Substitutions()
	ep.Top1, ep.Top5 = l.EndEpoch(sched.Fetch, 0)

	after, err := c.Stats()
	if err != nil {
		return ep, fmt.Errorf("stats: %w", err)
	}
	ep.Server = after
	ep.Server.Hits -= before.Hits
	ep.Server.Misses -= before.Misses
	ep.Server.Substitutions -= before.Substitutions
	ep.Server.Packages -= before.Packages
	ep.Server.DemandFetches -= before.DemandFetches
	return ep, nil
}
