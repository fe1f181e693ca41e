package overload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clk is a tiny deterministic clock for driving the explicit-now APIs.
type clk struct{ t time.Time }

func newClk() *clk { return &clk{t: time.Unix(1000, 0)} }

func (c *clk) now() time.Time                    { return c.t }
func (c *clk) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

func TestGateInflightCap(t *testing.T) {
	c := newClk()
	g := NewGate(GateConfig{MaxInflight: 2})
	ok1, _ := g.Admit(c.now())
	ok2, _ := g.Admit(c.now())
	if !ok1 || !ok2 {
		t.Fatalf("first two admits should pass: %v %v", ok1, ok2)
	}
	ok3, after := g.Admit(c.now())
	if ok3 {
		t.Fatalf("third admit should shed at MaxInflight=2")
	}
	if after <= 0 {
		t.Fatalf("shed must carry a retry-after hint, got %v", after)
	}
	g.Done()
	if ok, _ := g.Admit(c.now()); !ok {
		t.Fatalf("admit should pass again after Done")
	}
	st := g.Stats()
	if st.Shed != 1 || st.Admitted != 3 {
		t.Fatalf("stats = %+v, want Shed=1 Admitted=3", st)
	}
}

// TestGateLadder drives the Normal -> Brownout -> Shed -> Normal ladder on
// a virtual clock: over-target standing delay escalates one window at a
// time, and clean (or idle) windows decay straight back to Normal.
func TestGateLadder(t *testing.T) {
	c := newClk()
	g := NewGate(GateConfig{TargetDelay: time.Millisecond})
	var transitions []State
	g.OnStateChange(func(_, next State) { transitions = append(transitions, next) })

	overWindow := func() {
		// Two observations; the MIN is over target, so the whole window is.
		g.Observe(c.now(), 5*time.Millisecond)
		g.Observe(c.now(), 3*time.Millisecond)
		c.advance(gateWindow + time.Millisecond)
		g.Observe(c.now(), 5*time.Millisecond) // rolls the window
	}

	if g.State() != Normal {
		t.Fatalf("fresh gate should be Normal, got %v", g.State())
	}
	overWindow()
	if g.State() != Brownout {
		t.Fatalf("one over-target window should brown out, got %v", g.State())
	}
	overWindow()
	if g.State() != Brownout {
		t.Fatalf("two over-target windows stay Brownout, got %v", g.State())
	}
	overWindow()
	if g.State() != Shed {
		t.Fatalf("three over-target windows should shed, got %v", g.State())
	}

	// In Shed the floor bucket admits its burst then rejects: on a clock that
	// stands still, a few more arrivals than the burst are shed.
	admitted, shed := 0, 0
	for i := 0; i < floorBurst+4; i++ {
		if ok, _ := g.Admit(c.now()); ok {
			admitted++
			g.Done()
		} else {
			shed++
		}
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("Shed should admit the floor and reject the rest: admitted=%d shed=%d", admitted, shed)
	}

	// A clean window (min wait under target) recovers to Normal.
	g.Observe(c.now(), 0)
	c.advance(gateWindow + time.Millisecond)
	g.Observe(c.now(), 0)
	if g.State() != Normal {
		t.Fatalf("clean window should recover to Normal, got %v", g.State())
	}

	want := []State{Brownout, Shed, Normal}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	st := g.Stats()
	if st.Brownouts != 1 || st.Sheds != 1 {
		t.Fatalf("stats = %+v, want Brownouts=1 Sheds=1", st)
	}
}

// TestGateIdleDecay: a gate left in Brownout with no traffic must decay to
// Normal via the lazy window roll in Admit (no background goroutine).
func TestGateIdleDecay(t *testing.T) {
	c := newClk()
	g := NewGate(GateConfig{TargetDelay: time.Millisecond})
	g.Observe(c.now(), 5*time.Millisecond)
	c.advance(gateWindow + time.Millisecond)
	g.Observe(c.now(), 5*time.Millisecond)
	if g.State() != Brownout {
		t.Fatalf("setup: want Brownout, got %v", g.State())
	}
	c.advance(5 * gateWindow) // idle: no observations at all
	if ok, _ := g.Admit(c.now()); !ok {
		t.Fatalf("idle admit should pass")
	}
	g.Done()
	if g.State() != Normal {
		t.Fatalf("idle window should decay to Normal, got %v", g.State())
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	c := newClk()
	b := NewBreaker(BreakerConfig{Threshold: 3})
	for i := 0; i < 3; i++ {
		if !b.Allow(c.now()) {
			t.Fatalf("closed breaker must allow (failure %d)", i)
		}
		b.Report(c.now(), false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("3 consecutive failures should open, got %v", b.State())
	}
	if b.Allow(c.now()) {
		t.Fatalf("open breaker must fail fast inside cooldown")
	}
	c.advance(breakerCooldown + 100*time.Millisecond)
	if !b.Allow(c.now()) {
		t.Fatalf("cooldown elapsed: half-open must grant the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("want HalfOpen during probe, got %v", b.State())
	}
	// Probe fails: back to Open for another full cooldown.
	b.Report(c.now(), false)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should re-open, got %v", b.State())
	}
	c.advance(breakerCooldown + 100*time.Millisecond)
	if !b.Allow(c.now()) {
		t.Fatalf("second probe should be granted")
	}
	b.Report(c.now(), true)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, got %v", b.State())
	}
	st := b.Stats()
	if st.Trips != 1 || st.Probes != 2 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v, want Trips=1 Probes=2 Recoveries=1", st)
	}
}

// TestBreakerSuccessResetsFailureCount: non-consecutive failures never trip.
func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	c := newClk()
	b := NewBreaker(BreakerConfig{Threshold: 2})
	for i := 0; i < 10; i++ {
		if !b.Allow(c.now()) {
			t.Fatalf("iteration %d: breaker tripped on non-consecutive failures", i)
		}
		b.Report(c.now(), false)
		b.Allow(c.now())
		b.Report(c.now(), true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("want Closed, got %v", b.State())
	}
}

// TestBreakerHalfOpenSingleProbe: 16 concurrent callers hitting a breaker
// whose cooldown just elapsed must elect exactly ONE prober; the other 15
// fail fast. (The satellite's required concurrency shape.)
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	c := newClk()
	b := NewBreaker(BreakerConfig{Threshold: 1})
	b.Allow(c.now())
	b.Report(c.now(), false) // trip
	probeAt := c.advance(breakerCooldown + time.Millisecond)

	const callers = 16
	var allowed int64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			if b.Allow(probeAt) {
				atomic.AddInt64(&allowed, 1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if allowed != 1 {
		t.Fatalf("half-open granted %d probes, want exactly 1", allowed)
	}
	st := b.Stats()
	if st.Probes != 1 || st.FastFails != callers-1 {
		t.Fatalf("stats = %+v, want Probes=1 FastFails=%d", st, callers-1)
	}
	// The elected probe succeeds; everyone flows again.
	b.Report(probeAt, true)
	if !b.Allow(probeAt) || b.State() != BreakerClosed {
		t.Fatalf("after successful probe breaker should be closed and allowing")
	}
}

func TestIsOverload(t *testing.T) {
	if !IsOverload(&RetryAfterError{After: time.Millisecond}) {
		t.Fatalf("RetryAfterError should classify as overload")
	}
	if !IsOverload(ErrExpired) || !IsOverload(ErrBreakerOpen) {
		t.Fatalf("sentinels should classify as overload")
	}
	if IsOverload(nil) {
		t.Fatalf("nil is not overload")
	}
}
