// Package faults is the deterministic chaos substrate of the repository: a
// seeded, composable fault injector that the network layer (net.Conn), the
// byte sources (storage.DataSource) and the distributed directory (dkv) all
// consult before doing real work.
//
// A single Injector holds an ordered list of Rules. Every fallible operation
// names itself with an Op string ("conn.read", "dir.lookup", ...) and asks
// the injector for a Decision; the first rule that matches the operation —
// by call count, time window, stride, and probability — fires and
// dictates the outcome: an injected error, an added delay, a corrupted
// frame, or a dropped connection.
//
// Everything is keyed off one seeded PRNG plus monotone counters, so a chaos
// schedule replays identically under the same seed: the chaos suites in
// internal/rpc rely on that to assert that a faulted training run loses no
// samples relative to a fault-free run.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"icache/internal/simclock"
)

// Operation names used by the built-in wrappers. Rules with Op=="" match
// every operation.
const (
	OpConnRead     = "conn.read"     // faults.Conn read path
	OpConnWrite    = "conn.write"    // faults.Conn write path
	OpSourceFetch  = "source.fetch"  // storage.DataSource
	OpDirLookup    = "dir.lookup"    // directory lookups
	OpDirClaim     = "dir.claim"     // directory claims
	OpDirRelease   = "dir.release"   // directory releases
	OpDirRegister  = "dir.register"  // membership lease registrations
	OpDirHeartbeat = "dir.heartbeat" // membership lease renewals
	OpDirScan      = "dir.scan"      // membership scans (ListNodes/OwnedBy/PurgeDead)
)

// ErrInjected is the default error carried by error/drop decisions that do
// not specify their own.
var ErrInjected = errors.New("faults: injected fault")

// Action is the outcome class of a fired rule.
type Action uint8

const (
	// ActNone means the operation proceeds untouched.
	ActNone Action = iota
	// ActError makes the operation return an error without running.
	ActError
	// ActDelay lets the operation run after (virtual or wall) delay.
	ActDelay
	// ActCorrupt lets the operation run, then flips bytes in its payload
	// (only meaningful for conn reads/writes).
	ActCorrupt
	// ActDrop tears down the underlying connection (conn wrappers) or acts
	// like ActError elsewhere.
	ActDrop
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActError:
		return "error"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	case ActDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Decision is what an operation must do. The zero value means "proceed".
type Decision struct {
	Action Action
	Err    error
	Delay  time.Duration
}

// Fault reports whether the decision perturbs the operation at all.
func (d Decision) Fault() bool { return d.Action != ActNone }

// Rule describes one fault schedule entry. All set constraints must hold
// for the rule to match; unset (zero) constraints are ignored.
type Rule struct {
	// Op restricts the rule to one operation name ("" matches all).
	Op string
	// From/Until bound the per-op call index (0-based) half-open window
	// [From, Until). Until <= 0 leaves the window open-ended.
	From, Until int64
	// FromTime/UntilTime bound the time since the injector's New in the
	// half-open window [FromTime, UntilTime); a zero UntilTime leaves it
	// open-ended. Inside a virtual-clock bubble (internal/vt) that is the
	// bubble's clock, so a window is exact to the nanosecond.
	FromTime, UntilTime simclock.Time
	// Every fires the rule on every Nth matching call (1 or 0 = every call).
	Every int64
	// Prob gates firing on a seeded coin flip; <= 0 or >= 1 means always.
	Prob float64
	// Count caps the number of fires; <= 0 means unlimited.
	Count int64

	// Action, Err and Delay define the injected outcome. A zero Action with
	// a non-nil Err is promoted to ActError; a zero Action with a positive
	// Delay is promoted to ActDelay.
	Action Action
	Err    error
	Delay  time.Duration
}

// normalized resolves the Action promotion rules.
func (r Rule) normalized() Rule {
	if r.Action == ActNone {
		switch {
		case r.Err != nil:
			r.Action = ActError
		case r.Delay > 0:
			r.Action = ActDelay
		}
	}
	if (r.Action == ActError || r.Action == ActDrop) && r.Err == nil {
		r.Err = ErrInjected
	}
	return r
}

// rule is a Rule plus its firing state.
type rule struct {
	Rule
	seen  int64 // calls that matched every static constraint
	fired int64
}

// Injector is a seeded, composable fault schedule. The zero value is not
// usable; build one with New. All methods are safe for concurrent use, and
// a nil *Injector is inert (every Decide returns a zero Decision), so
// wrapped components need no nil checks at call sites.
type Injector struct {
	start time.Time // the time windows' epoch
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*rule
	calls map[string]int64
	fired map[string]int64
}

// New returns an empty injector whose probabilistic rules draw from a PRNG
// seeded with seed.
func New(seed int64) *Injector {
	return &Injector{
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		calls: make(map[string]int64),
		fired: make(map[string]int64),
	}
}

// Add appends a rule to the schedule and returns the injector for chaining.
// Rules are consulted in insertion order; the first that fires wins.
func (in *Injector) Add(rules ...Rule) *Injector {
	if in == nil {
		panic("faults: Add on nil Injector")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		rc := r.normalized()
		in.rules = append(in.rules, &rule{Rule: rc})
	}
	return in
}

// Decide evaluates the schedule for one call of op, made now.
func (in *Injector) Decide(op string) Decision {
	if in == nil {
		return Decision{}
	}
	at := simclock.Time(time.Since(in.start))
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.calls[op]
	in.calls[op]++
	for _, r := range in.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if idx < r.From || (r.Until > 0 && idx >= r.Until) {
			continue
		}
		if at < r.FromTime || (r.UntilTime > 0 && at >= r.UntilTime) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		seen := r.seen
		r.seen++
		if r.Every > 1 && seen%r.Every != 0 {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		in.fired[op]++
		return Decision{Action: r.Action, Err: r.Err, Delay: r.Delay}
	}
	return Decision{}
}

// Calls reports how many decisions have been requested for op.
func (in *Injector) Calls(op string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[op]
}

// Fired reports how many faults have been injected for op.
func (in *Injector) Fired(op string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[op]
}

// TotalFired reports the number of injected faults across all operations.
func (in *Injector) TotalFired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.fired {
		n += v
	}
	return n
}

// Reset clears call counters and firing state but keeps the rule schedule
// and the PRNG position.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls = make(map[string]int64)
	in.fired = make(map[string]int64)
	for _, r := range in.rules {
		r.seen, r.fired = 0, 0
	}
}

// FailN makes the next n calls of op return err (ErrInjected when err is
// nil).
func FailN(op string, n int, err error) Rule {
	if n <= 0 {
		// A zero-count request must never fire (Count <= 0 means unlimited,
		// so an unreachable call window expresses "off").
		return Rule{Op: op, From: 1 << 62, Action: ActError, Err: err}
	}
	return Rule{Op: op, Count: int64(n), Action: ActError, Err: err}
}

// Partition makes every call of op inside the window [from, until) of time
// since the injector's New fail with err — the building block for "the
// directory is unreachable for epoch k" schedules.
func Partition(op string, from, until simclock.Time, err error) Rule {
	return Rule{Op: op, FromTime: from, UntilTime: until, Action: ActError, Err: err}
}

// DropEvery tears down the connection on every nth call of op.
func DropEvery(op string, n int64) Rule {
	return Rule{Op: op, Every: n, Action: ActDrop}
}

// DelayEvery adds d of latency on every nth call of op.
func DelayEvery(op string, n int64, d time.Duration) Rule {
	return Rule{Op: op, Every: n, Action: ActDelay, Delay: d}
}

// CorruptEvery flips payload bytes on every nth call of op.
func CorruptEvery(op string, n int64) Rule {
	return Rule{Op: op, Every: n, Action: ActCorrupt}
}

// ErrorProb fails op with err with the given probability per call.
func ErrorProb(op string, p float64, err error) Rule {
	return Rule{Op: op, Prob: p, Action: ActError, Err: err}
}
