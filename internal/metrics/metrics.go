// Package metrics holds the counters and small statistics helpers shared by
// the cache implementations, the training simulator, and the experiment
// harness. Keeping them in one place lets every scheme report hit ratios and
// I/O breakdowns in exactly the way the paper's figures do.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// CacheStats counts cache-level events. The paper's "cache hit ratio"
// figures count substitution-served requests as hits (that is explicitly why
// enabling the L-cache raises the hit ratio from 25% to 37% in Fig. 11), so
// HitRatio includes Substitutions.
type CacheStats struct {
	Hits          int64 // requests served from cached copies of the requested sample
	Misses        int64 // requests that went to backend storage
	Substitutions int64 // requests served by a different cached sample
	Degraded      int64 // requests that fell back to backend storage because a fault broke the preferred path
	Inserts       int64 // samples admitted into the cache
	Evictions     int64 // samples evicted to make room
	Rejections    int64 // fetched samples the policy declined to admit
}

// Add accumulates o into s.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Substitutions += o.Substitutions
	s.Degraded += o.Degraded
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.Rejections += o.Rejections
}

// Requests reports the total number of sample requests seen. Every request
// is counted exactly once, in exactly one of the four outcome classes —
// the conservation invariant the chaos suite asserts:
//
//	Hits + Misses + Substitutions + Degraded == Requests()
func (s CacheStats) Requests() int64 { return s.Hits + s.Misses + s.Substitutions + s.Degraded }

// HitRatio reports the fraction of requests served from memory (true hits
// plus substitution hits). Degraded requests were served from the backend,
// so they dilute the ratio just like misses. Zero requests yields 0.
func (s CacheStats) HitRatio() float64 {
	req := s.Requests()
	if req == 0 {
		return 0
	}
	return float64(s.Hits+s.Substitutions) / float64(req)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d subs=%d degraded=%d hitRatio=%.3f inserts=%d evictions=%d",
		s.Hits, s.Misses, s.Substitutions, s.Degraded, s.HitRatio(), s.Inserts, s.Evictions)
}

// ResilienceStats counts the fault-handling events of a distributed cache:
// how often the directory or a peer failed and how many requests degraded
// to backend reads. They are observability counters, not part of the
// request-conservation invariant (one request may produce several
// resilience events, or none).
type ResilienceStats struct {
	DirFailures   int64 // directory operations (or lifecycle steps) that failed
	PeerFailures  int64 // remote-cache reads that failed
	DegradedReads int64 // requests that fell back to the backend after a fault
	Retries       int64 // network operations that needed at least one retry
	Redials       int64 // connections re-established after a transport failure
}

// Add accumulates o into r.
func (r *ResilienceStats) Add(o ResilienceStats) {
	r.DirFailures += o.DirFailures
	r.PeerFailures += o.PeerFailures
	r.DegradedReads += o.DegradedReads
	r.Retries += o.Retries
	r.Redials += o.Redials
}

// Faults reports the total number of observed failures (directory + peer).
func (r ResilienceStats) Faults() int64 { return r.DirFailures + r.PeerFailures }

func (r ResilienceStats) String() string {
	return fmt.Sprintf("dirFail=%d peerFail=%d degraded=%d retries=%d redials=%d",
		r.DirFailures, r.PeerFailures, r.DegradedReads, r.Retries, r.Redials)
}

// MembershipStats counts node-lifecycle events across the distributed
// cache: lease churn on the directory side (registrations, heartbeats,
// state transitions, reclaimed/purged entries) and reconciliation work on
// the node side (anti-entropy scrub sweeps, rejoin claim replay). Like
// ResilienceStats they are observability counters, not part of the
// request-conservation invariant.
type MembershipStats struct {
	// Directory-side lease counters.
	Registers        int64 // lease grants (first registrations and re-registrations)
	Heartbeats       int64 // successful lease renewals
	HeartbeatRejects int64 // heartbeats arriving at/after lease expiry (node must re-register)
	Suspects         int64 // observed Live → Suspect transitions
	Deaths           int64 // observed → Dead transitions
	Revivals         int64 // registrations that revived a Suspect/Dead node
	Reclaims         int64 // claims that took over a Dead node's entry (first claimer wins)
	Purged           int64 // Dead-owned entries garbage-collected (on lookup or by PurgeDead)

	// Node-side reconciliation counters.
	ScrubSweeps    int64 // anti-entropy sweeps completed
	ScrubReleased  int64 // orphaned directory entries released (registered but not cached)
	ScrubReclaimed int64 // cached-but-unregistered samples re-claimed
	ScrubDropped   int64 // local copies dropped because another node owns the sample
	ReplayedClaims int64 // ownership claims replayed from a checkpoint on rejoin
	ReplayDenied   int64 // replayed claims denied (the survivor won; local copy dropped)
}

// Add accumulates o into m.
func (m *MembershipStats) Add(o MembershipStats) {
	m.Registers += o.Registers
	m.Heartbeats += o.Heartbeats
	m.HeartbeatRejects += o.HeartbeatRejects
	m.Suspects += o.Suspects
	m.Deaths += o.Deaths
	m.Revivals += o.Revivals
	m.Reclaims += o.Reclaims
	m.Purged += o.Purged
	m.ScrubSweeps += o.ScrubSweeps
	m.ScrubReleased += o.ScrubReleased
	m.ScrubReclaimed += o.ScrubReclaimed
	m.ScrubDropped += o.ScrubDropped
	m.ReplayedClaims += o.ReplayedClaims
	m.ReplayDenied += o.ReplayDenied
}

func (m MembershipStats) String() string {
	return fmt.Sprintf("reg=%d hb=%d hbRej=%d suspect=%d dead=%d revive=%d reclaim=%d purged=%d scrub{sweeps=%d released=%d reclaimed=%d dropped=%d} replay{claims=%d denied=%d}",
		m.Registers, m.Heartbeats, m.HeartbeatRejects, m.Suspects, m.Deaths, m.Revivals,
		m.Reclaims, m.Purged, m.ScrubSweeps, m.ScrubReleased, m.ScrubReclaimed, m.ScrubDropped,
		m.ReplayedClaims, m.ReplayDenied)
}

// ServingStats counts concurrent-serving-path events on the network
// server: miss coalescing, the prefetch queue's depth (what its prefetches
// came to is DecisionStats' outcome ledger), and encode/frame buffer
// pooling. Like ResilienceStats they are observability counters, not part
// of the request-conservation invariant.
type ServingStats struct {
	CoalescedMisses    int64 // miss fetches that joined an in-flight fetch for the same sample
	PrefetchQueueDepth int64 // gauge: current prefetch backlog
	BufferGets         int64 // pooled-buffer checkouts on the wire path
	BufferAllocs       int64 // checkouts that had to allocate (pool miss)
	BufferDiscards     int64 // buffer returns dropped at the pooled-capacity cap
	VecGets            int64 // pooled vectored-frame checkouts on the wire path
	VecAllocs          int64 // vectored-frame checkouts that had to allocate
	VecDiscards        int64 // vectored-frame returns dropped at the pooled-capacity cap
	PeerBatchRPCs      int64 // scatter-gather opPeerGetBatch round trips issued
	PeerBatchSamples   int64 // samples carried by those batched peer RPCs
	MuxInflight        int64 // gauge: multiplexed request frames currently being served

	// Payload-store counters (the zero-copy hit path). PayloadPins keeps the
	// name the benchmark module reads; nothing is pinned any more — it counts
	// payload reads the batch paths served by reference, one per sample.
	PayloadBytes int64 // gauge: bytes of live (resident) payloads
	PayloadPins  int64 // payload reads served by reference from the store
}

// BufferReuseRate reports the fraction of pooled-buffer checkouts served
// without allocating (0 when no checkouts happened).
func (s ServingStats) BufferReuseRate() float64 {
	if s.BufferGets == 0 {
		return 0
	}
	return 1 - float64(s.BufferAllocs)/float64(s.BufferGets)
}

// OverloadStats counts overload-control events on the network server: the
// admission gate's decisions, server-side deadline drops, and the per-peer
// circuit breakers' lifecycle (aggregated across peers). Unlike the other
// observability families, Shed and Expired join the serving layer's
// request-conservation arithmetic: every offered request is either served
// (and lands in CacheStats), shed, or expired — exactly once.
type OverloadStats struct {
	GateState int64 // gauge: admission ladder position, 0=normal 1=brownout 2=shed (0 with no gate)
	Inflight  int64 // gauge: requests currently holding an admission slot
	Admitted  int64 // requests the gate let through
	Shed      int64 // requests rejected with a retry-after hint
	Expired   int64 // requests dropped server-side with their deadline budget spent
	Brownouts int64 // entries into the Brownout state (transitions, not requests)
	Sheds     int64 // entries into the Shed state (transitions, not requests)

	BreakersOpen      int64 // gauge: peer breakers currently open or half-open
	BreakerTrips      int64 // closed-to-open transitions across all peers
	BreakerFastFails  int64 // calls rejected by an open breaker without touching the network
	BreakerProbes     int64 // half-open probe calls issued
	BreakerRecoveries int64 // breakers re-closed by a successful probe
}

// EpochStats describes one simulated training epoch of one job.
type EpochStats struct {
	Epoch int
	// Duration is wall time of the epoch (virtual).
	Duration time.Duration
	// IOStall is time the GPU spent waiting for data — the paper's "I/O
	// time" / data-stall metric.
	IOStall time.Duration
	// Compute is time the GPU spent computing.
	Compute time.Duration
	// FetchBusy is cumulative time workers spent fetching (can exceed
	// Duration because workers run in parallel).
	FetchBusy time.Duration
	// SamplesFetched and SamplesTrained count the epoch's data volume.
	SamplesFetched int
	SamplesTrained int
	// Cache is the epoch's cache-event delta.
	Cache CacheStats
	// Top1 and Top5 are the model's accuracy at the end of this epoch.
	Top1, Top5 float64
}

// RunStats aggregates a whole training run.
type RunStats struct {
	Scheme string
	Epochs []EpochStats
}

// AvgEpochTime is the paper's headline metric: total training time divided
// by the number of epochs.
func (r RunStats) AvgEpochTime() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Epochs {
		total += e.Duration
	}
	return total / time.Duration(len(r.Epochs))
}

// AvgIOStall averages per-epoch GPU stall time.
func (r RunStats) AvgIOStall() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Epochs {
		total += e.IOStall
	}
	return total / time.Duration(len(r.Epochs))
}

// TotalCache sums cache stats over all epochs.
func (r RunStats) TotalCache() CacheStats {
	var c CacheStats
	for _, e := range r.Epochs {
		c.Add(e.Cache)
	}
	return c
}

// FinalTop1 returns the last epoch's Top-1 accuracy (0 if no epochs).
func (r RunStats) FinalTop1() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].Top1
}

// FinalTop5 returns the last epoch's Top-5 accuracy (0 if no epochs).
func (r RunStats) FinalTop5() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].Top5
}

// Speedup reports how much faster r is than baseline on average epoch time.
// Zero-denominator edges are defined rather than left to float division:
// two zero-time runs are equally fast (1); a zero-time r against a real
// baseline is infinitely faster (+Inf); a zero-time baseline against a real
// r is a 0× "speedup".
func Speedup(baseline, r RunStats) float64 {
	b, v := baseline.AvgEpochTime(), r.AvgEpochTime()
	if v == 0 {
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(b) / float64(v)
}

// Series is a float series with summary helpers, used by the experiment
// harness when printing figure data.
type Series []float64

// Mean returns the arithmetic mean (0 for an empty series).
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Min returns the smallest element (0 for an empty series).
func (s Series) Min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element (0 for an empty series).
func (s Series) Max() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest order statistics on a sorted copy (the
// "inclusive" / numpy-default method: fractional rank p/100·(n−1)). This is
// the same convention obs.HistSnapshot.Quantile uses inside a histogram
// bucket, so the two estimators agree to within one bucket's width on the
// same data — a consistency the cross-package test in internal/obs pins.
// Out-of-range p clamps; an empty series reports 0; NaN p is treated as 0.
func (s Series) Percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append(Series(nil), s...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// SnapshotUnder copies *v while holding mu — the one way every stats
// struct in the repo is snapshotted for reading. Counter owners mutate
// their struct under a lock; readers that copy it without that lock race
// with Add (the PR-3 listener-field pattern). Routing reads through this
// helper makes the copy-under-lock discipline greppable and impossible to
// get subtly wrong at each call site.
func SnapshotUnder[T any](mu sync.Locker, v *T) T {
	mu.Lock()
	defer mu.Unlock()
	return *v
}
