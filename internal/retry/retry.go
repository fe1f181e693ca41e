// Package retry provides the exponential-backoff-with-jitter policy shared
// by the resilient network clients (internal/rpc, internal/dkv). It is
// deliberately tiny and dependency-free: a Policy describing the schedule,
// a Do loop executing it, and a Permanent marker for errors that must not
// be retried.
//
// Determinism matters here as much as in the simulators: callers own the
// PRNG that drives jitter and may substitute the sleep function, so chaos
// tests replay identically under a fixed seed.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy describes a bounded exponential-backoff retry schedule.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first.
	// Values < 1 behave as 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps an individual backoff.
	MaxDelay time.Duration
	// Multiplier grows the backoff between retries (values <= 1 mean
	// constant backoff).
	Multiplier float64
	// Jitter perturbs each backoff by ±Jitter fraction (0.2 = ±20%),
	// decorrelating clients that fail together.
	Jitter float64
	// Deadline bounds the whole operation: once the cumulative elapsed time
	// plus the next backoff would exceed it, Do gives up. 0 means no bound.
	Deadline time.Duration
}

// Default is the schedule for training-side clients riding through cache
// server restarts: a handful of quick retries, then give up loudly.
func Default() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Deadline:    2 * time.Second,
	}
}

// Peer is the schedule for node-to-node cache reads. It is much tighter
// than Default: a remote-cache miss must degrade to a backend read, never
// stall the training pipeline behind a sick peer.
func Peer() Policy {
	return Policy{
		MaxAttempts: 2,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Deadline:    250 * time.Millisecond,
	}
}

// None disables retries (one attempt, no backoff).
func None() Policy { return Policy{MaxAttempts: 1} }

// Backoff returns the delay before retry number retry (1-based), jittered
// by the caller's PRNG (nil rng means no jitter).
func (p Policy) Backoff(retry int, rng *rand.Rand) time.Duration {
	if retry < 1 || p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do returns it immediately instead of retrying.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// Do runs op under the policy. op receives the 0-based attempt number. A
// nil error stops the loop; a Permanent error is unwrapped and returned at
// once; any other error is retried after a jittered backoff until attempts
// or the deadline run out. sleep may be nil (time.Sleep) and rng may be nil
// (no jitter). Do returns the last error annotated with the attempt count.
func Do(p Policy, rng *rand.Rand, sleep func(time.Duration), op func(attempt int) error) error {
	if sleep == nil {
		sleep = time.Sleep
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var elapsed time.Duration
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if err = op(attempt); err == nil {
			return nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt == attempts-1 {
			break
		}
		d := p.Backoff(attempt+1, rng)
		if p.Deadline > 0 && elapsed+d >= p.Deadline {
			return fmt.Errorf("retry: deadline %v exceeded after %d attempts: %w", p.Deadline, attempt+1, err)
		}
		elapsed += d
		sleep(d)
	}
	if attempts > 1 {
		return fmt.Errorf("retry: %d attempts: %w", attempts, err)
	}
	return err
}
