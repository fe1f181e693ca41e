// Package overload implements the serving-path overload controls shared by
// the cache server (internal/rpc) and the directory service (internal/dkv):
//
//   - Gate: a queue-delay-driven admission controller in the CoDel spirit.
//     Requests pay an inflight check on arrival; the standing queue delay
//     (the windowed MINIMUM of admission waits, so a transient burst does
//     not trip it) drives a three-state ladder: Normal -> Brownout (shut
//     off optional work: substitution scans, prefetching) -> Shed (reject
//     excess with a retry-after hint, keeping only a token-bucket floor of
//     traffic flowing so recovery can be observed).
//
//   - Breaker: a per-peer circuit breaker (Closed -> Open on consecutive
//     failures -> HalfOpen granting exactly one probe). Peers that time out
//     or shed repeatedly fail fast to the backend fallback instead of
//     stalling every scatter-gather batch on a dead TCP connection.
//
// Both take explicit time.Time arguments so tests drive them on a virtual
// clock; nothing in this package reads the wall clock or sleeps.
package overload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is the admission ladder position.
type State int32

const (
	// Normal admits everything under the inflight cap.
	Normal State = iota
	// Brownout admits everything but signals the server to drop optional
	// work (substitution scans, prefetch) — load is building.
	Brownout
	// Shed rejects excess requests with a retry-after hint, admitting only
	// the token-bucket floor (plus inflight headroom) so the standing delay
	// can still be measured for recovery.
	Shed
)

func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Brownout:
		return "brownout"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// GateConfig parameterizes a Gate. Zero values select the documented
// defaults; a zero TargetDelay disables the delay ladder (the inflight cap
// still applies).
type GateConfig struct {
	// MaxInflight caps concurrently admitted requests; arrivals beyond it
	// are shed immediately. <= 0 means unlimited.
	MaxInflight int
	// TargetDelay is the acceptable standing queue delay. When the windowed
	// minimum admission wait exceeds it, the gate walks the ladder.
	TargetDelay time.Duration
	// Window is how long each delay-observation window lasts. Default 100ms.
	Window time.Duration
	// ShedWindows is how many consecutive over-target windows escalate
	// Brownout to Shed. Default 3 (the first over-target window already
	// enters Brownout).
	ShedWindows int
	// FloorRate is the admissions/sec token-bucket floor kept flowing during
	// Shed. Default 100.
	FloorRate float64
	// FloorBurst is the token bucket depth. Default 16.
	FloorBurst float64
}

// shedRetryAfter is the backoff hint attached to shed responses.
const shedRetryAfter = 5 * time.Millisecond

func (c GateConfig) withDefaults() GateConfig {
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.ShedWindows <= 0 {
		c.ShedWindows = 3
	}
	if c.FloorRate <= 0 {
		c.FloorRate = 100
	}
	if c.FloorBurst <= 0 {
		c.FloorBurst = 16
	}
	return c
}

// GateStats is a point-in-time counter snapshot of one Gate.
type GateStats struct {
	State    State
	Inflight int64
	Admitted int64
	Shed     int64
	// Brownouts and Sheds count ladder ENTRIES (state transitions), not
	// rejected requests.
	Brownouts int64
	Sheds     int64
}

// Gate is the admission controller. The hot path (Admit/Done) is one atomic
// add-then-check when the ladder is Normal; the mutex only guards window
// rolls and the Shed-state token bucket.
type Gate struct {
	cfg GateConfig

	inflight int64 // atomic
	state    int32 // atomic State, so brownout hooks read it lock-free
	admitted int64 // atomic
	shed     int64 // atomic

	mu          sync.Mutex
	windowEnd   time.Time
	minWait     time.Duration // windowed minimum admission wait
	haveWait    bool
	overWindows int     // consecutive windows with minWait > TargetDelay
	tokens      float64 // Shed-state floor bucket
	tokensAt    time.Time
	brownouts   int64
	sheds       int64

	// onState, when set, is called on every ladder transition with the gate
	// mutex held — it must be fast and must not call back into the Gate.
	onState func(old, new State)
}

// NewGate builds a Gate. cfg zero values take the package defaults.
func NewGate(cfg GateConfig) *Gate {
	return &Gate{cfg: cfg.withDefaults()}
}

// OnStateChange registers the ladder-transition hook (the rpc server uses
// it to pause prefetching and disable substitution scans in Brownout).
// Must be called before the gate serves traffic.
func (g *Gate) OnStateChange(fn func(old, new State)) { g.onState = fn }

// State reports the current ladder position (lock-free).
func (g *Gate) State() State { return State(atomic.LoadInt32(&g.state)) }

// Admit decides one arrival. ok=true means the caller owns one inflight
// slot and must call Done when the request finishes (on every path). On
// ok=false the request must be rejected with the returned retry-after hint.
func (g *Gate) Admit(now time.Time) (ok bool, retryAfter time.Duration) {
	if n := int64(g.cfg.MaxInflight); n > 0 {
		if atomic.AddInt64(&g.inflight, 1) > n {
			atomic.AddInt64(&g.inflight, -1)
			atomic.AddInt64(&g.shed, 1)
			return false, shedRetryAfter
		}
	} else {
		atomic.AddInt64(&g.inflight, 1)
	}
	if g.cfg.TargetDelay > 0 {
		g.mu.Lock()
		g.rollLocked(now)
		if State(atomic.LoadInt32(&g.state)) == Shed && !g.takeTokenLocked(now) {
			g.mu.Unlock()
			atomic.AddInt64(&g.inflight, -1)
			atomic.AddInt64(&g.shed, 1)
			return false, shedRetryAfter
		}
		g.mu.Unlock()
	}
	atomic.AddInt64(&g.admitted, 1)
	return true, 0
}

// Done releases the inflight slot taken by a successful Admit.
func (g *Gate) Done() { atomic.AddInt64(&g.inflight, -1) }

// Observe records how long an admitted request waited between arrival and
// the start of service (the mux inflight-semaphore wait, or zero on the
// unqueued paths). The windowed minimum of these waits is the standing
// queue delay that drives the ladder.
func (g *Gate) Observe(now time.Time, wait time.Duration) {
	if g.cfg.TargetDelay <= 0 {
		return
	}
	g.mu.Lock()
	g.rollLocked(now)
	if !g.haveWait || wait < g.minWait {
		g.minWait, g.haveWait = wait, true
	}
	g.mu.Unlock()
}

// rollLocked closes out any elapsed window(s) and walks the ladder. A
// window with no observations counts as under target (an idle server has
// no standing queue), so the gate decays back to Normal on its own.
func (g *Gate) rollLocked(now time.Time) {
	if g.windowEnd.IsZero() {
		g.windowEnd = now.Add(g.cfg.Window)
		return
	}
	if now.Before(g.windowEnd) {
		return
	}
	over := g.haveWait && g.minWait > g.cfg.TargetDelay
	if over {
		g.overWindows++
	} else {
		g.overWindows = 0
	}
	g.minWait, g.haveWait = 0, false
	g.windowEnd = g.windowEnd.Add(g.cfg.Window)
	if !now.Before(g.windowEnd) {
		// At least one whole window elapsed with no observations at all:
		// the server sat idle, so there is no standing queue left.
		g.overWindows = 0
		g.windowEnd = now.Add(g.cfg.Window)
	}
	next := Normal
	switch {
	case g.overWindows >= g.cfg.ShedWindows:
		next = Shed
	case g.overWindows >= 1:
		next = Brownout
	}
	g.setStateLocked(now, next)
}

func (g *Gate) setStateLocked(now time.Time, next State) {
	prev := State(atomic.LoadInt32(&g.state))
	if prev == next {
		return
	}
	atomic.StoreInt32(&g.state, int32(next))
	switch next {
	case Brownout:
		g.brownouts++
	case Shed:
		g.sheds++
		// Prime the floor bucket so shedding starts with a small burst of
		// admissions rather than a hard zero.
		g.tokens, g.tokensAt = g.cfg.FloorBurst, now
	}
	if g.onState != nil {
		g.onState(prev, next)
	}
}

// takeTokenLocked replenishes and draws one floor token.
func (g *Gate) takeTokenLocked(now time.Time) bool {
	if g.tokensAt.IsZero() {
		g.tokensAt = now
	}
	g.tokens += now.Sub(g.tokensAt).Seconds() * g.cfg.FloorRate
	g.tokensAt = now
	if g.tokens > g.cfg.FloorBurst {
		g.tokens = g.cfg.FloorBurst
	}
	if g.tokens < 1 {
		return false
	}
	g.tokens--
	return true
}

// Stats snapshots the gate counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	brownouts, sheds := g.brownouts, g.sheds
	g.mu.Unlock()
	return GateStats{
		State:     g.State(),
		Inflight:  atomic.LoadInt64(&g.inflight),
		Admitted:  atomic.LoadInt64(&g.admitted),
		Shed:      atomic.LoadInt64(&g.shed),
		Brownouts: brownouts,
		Sheds:     sheds,
	}
}

// BreakerState is the circuit position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome decides
	// between re-opening and closing.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", int32(s))
	}
}

// BreakerConfig parameterizes a Breaker. Zero values take the defaults.
type BreakerConfig struct {
	// Threshold is how many CONSECUTIVE failures trip Closed -> Open.
	// Default 5.
	Threshold int
	// Cooldown is how long Open fails fast before allowing the half-open
	// probe. Default 1s.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// BreakerStats is a point-in-time snapshot of one Breaker.
type BreakerStats struct {
	State      BreakerState
	Trips      int64
	FastFails  int64
	Probes     int64
	Recoveries int64
}

// Breaker is one peer's circuit breaker. The rpc layer owns one per peer
// NodeID (surviving client redials, so a flapping connection cannot reset
// the failure count) and one per directory replica.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	trips      int64
	fastFails  int64
	probes     int64
	recoveries int64

	onState func(old, next BreakerState)
}

// NewBreaker builds a Breaker. cfg zero values take the defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// OnStateChange registers fn to run on every circuit transition (trip,
// half-open probe grant, recovery). Single slot — the last registration
// wins. fn runs with the breaker mutex held, so it must be fast and must
// not call back into the breaker; the rpc layer uses it to journal trips
// and recoveries.
func (b *Breaker) OnStateChange(fn func(old, next BreakerState)) {
	b.mu.Lock()
	b.onState = fn
	b.mu.Unlock()
}

// transitionLocked moves the circuit to next and fires the state hook
// (mu held).
func (b *Breaker) transitionLocked(next BreakerState) {
	if b.state == next {
		return
	}
	old := b.state
	b.state = next
	if b.onState != nil {
		b.onState(old, next)
	}
}

// Allow reports whether a call may proceed now. In HalfOpen exactly one
// caller is granted the probe; concurrent callers fail fast until the
// probe's Report lands.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.fastFails++
			return false
		}
		b.transitionLocked(BreakerHalfOpen)
		b.probing = true
		b.probes++
		return true
	default: // BreakerHalfOpen
		if b.probing {
			b.fastFails++
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Report records the outcome of a call previously admitted by Allow.
func (b *Breaker) Report(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != BreakerClosed {
			b.recoveries++
		}
		b.transitionLocked(BreakerClosed)
		b.fails = 0
		b.probing = false
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: back to Open for another cooldown.
		b.transitionLocked(BreakerOpen)
		b.openedAt = now
		b.probing = false
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.transitionLocked(BreakerOpen)
			b.openedAt = now
			b.trips++
		}
	}
}

// State reports the circuit position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:      b.state,
		Trips:      b.trips,
		FastFails:  b.fastFails,
		Probes:     b.probes,
		Recoveries: b.recoveries,
	}
}

// RetryAfterError is the typed rejection a shed server returns: the caller
// should back off for After before retrying. Both rpc.Client and
// dkv.DirClient surface it so load generators can separate shed traffic
// from transport failures.
type RetryAfterError struct {
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("overload: shed, retry after %v", e.After)
}

// ErrExpired is returned (and sent as statusExpired on the wire) when a
// request's deadline budget ran out before the work was done.
var ErrExpired = errors.New("overload: deadline budget expired")

// ErrBreakerOpen is the fast-fail a tripped circuit returns without
// touching the network. It is wrapped retry.Permanent by the callers so
// the retry loop does not burn the remaining budget re-asking an open
// circuit.
var ErrBreakerOpen = errors.New("overload: circuit breaker open")

// IsOverload reports whether err is one of this package's typed rejections
// (shed, expired, or breaker-open) rather than a transport failure.
func IsOverload(err error) bool {
	var ra *RetryAfterError
	return errors.As(err, &ra) || errors.Is(err, ErrExpired) || errors.Is(err, ErrBreakerOpen)
}
