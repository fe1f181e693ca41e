package retry

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"icache/internal/vt"
)

// Every test that calls Do runs in a virtual-clock bubble: a backoff is a
// time.Sleep, exact and free there, so the tests read the schedule off the
// clock.

func TestDoSucceedsFirstTry(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		calls, t0 := 0, time.Now()
		err := Do(Default(), nil, time.Time{}, func(int) error { calls++; return nil })
		if err != nil || calls != 1 {
			t.Fatalf("err=%v calls=%d", err, calls)
		}
		if el := time.Since(t0); el != 0 {
			t.Fatalf("slept %v without a failure", el)
		}
	})
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		var at []time.Duration
		t0 := time.Now()
		p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Multiplier: 2}
		err := Do(p, nil, time.Time{}, func(attempt int) error {
			at = append(at, time.Since(t0))
			if attempt < 3 {
				return errors.New("transient")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(at) != 4 {
			t.Fatalf("calls = %d, want 4", len(at))
		}
		want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
		for i, d := range want {
			if got := at[i+1] - at[i]; got != d {
				t.Fatalf("backoff[%d] = %v, want %v (attempts at %v)", i, got, d, at)
			}
		}
	})
}

func TestDoExhaustsAttempts(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		base := errors.New("always")
		calls := 0
		p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}
		err := Do(p, nil, time.Time{}, func(int) error { calls++; return base })
		if calls != 3 {
			t.Fatalf("calls = %d, want 3", calls)
		}
		if !errors.Is(err, base) {
			t.Fatalf("err = %v, want wrapped base error", err)
		}
	})
}

func TestPermanentStopsImmediately(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		base := errors.New("fatal")
		calls, t0 := 0, time.Now()
		err := Do(Default(), nil, time.Time{}, func(int) error { calls++; return Permanent(base) })
		if calls != 1 {
			t.Fatalf("calls = %d, want 1", calls)
		}
		if el := time.Since(t0); el != 0 {
			t.Fatalf("slept %v on a permanent error", el)
		}
		if err != base {
			t.Fatalf("err = %v, want unwrapped base", err)
		}
		if Permanent(nil) != nil {
			t.Fatal("Permanent(nil) != nil")
		}
	})
}

// TestDeadlineBoundsBackoff: Do sleeps no backoff that would end at or past
// the caller's deadline.
func TestDeadlineBoundsBackoff(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		p := Policy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, Multiplier: 1}
		const budget = 35 * time.Millisecond
		calls, t0 := 0, time.Now()
		base := errors.New("x")
		err := Do(p, nil, t0.Add(budget), func(int) error { calls++; return base })
		if !errors.Is(err, base) {
			t.Fatalf("deadline run: %v, want the last attempt's error", err)
		}
		// 3 backoffs of 10ms fit under 35ms; the 4th would end at 40ms.
		if calls != 4 {
			t.Fatalf("calls = %d, want 4", calls)
		}
		if el := time.Since(t0); el != 30*time.Millisecond {
			t.Fatalf("slept %v, want the three backoffs that end before the %v deadline", el, budget)
		}
	})
}

func TestBackoffCapsAtMaxDelay(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2}
	if d := p.Backoff(1, nil); d != time.Millisecond {
		t.Fatalf("Backoff(1) = %v", d)
	}
	if d := p.Backoff(8, nil); d != 4*time.Millisecond {
		t.Fatalf("Backoff(8) = %v, want cap", d)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Jitter: 0.2}
	for i := 0; i < 50; i++ {
		d := p.Backoff(1, rand.New(rand.NewSource(int64(i))))
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±20%%", d)
		}
	}
	a := p.Backoff(1, rand.New(rand.NewSource(42)))
	b := p.Backoff(1, rand.New(rand.NewSource(42)))
	if a != b {
		t.Fatal("same seed, different jitter")
	}
}

func TestZeroAttemptsBehavesAsOne(t *testing.T) {
	calls := 0
	err := Do(Policy{}, nil, time.Time{}, func(int) error { calls++; return errors.New("x") })
	if calls != 1 || err == nil {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}
