// Package simclock provides the virtual-time primitives used by every
// simulated component in this repository.
//
// All experiments in the iCache reproduction run in simulated time so that a
// full paper evaluation (hundreds of simulated training epochs across many
// configurations) executes in seconds of wall-clock time and is perfectly
// deterministic. The package deliberately stays tiny: a monotonic virtual
// clock, a FIFO resource (the building block for storage servers, network
// links and GPUs), and a small event queue for components that need to
// schedule background work such as the L-cache loading thread.
package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It intentionally reuses time.Duration so arithmetic with
// service times reads naturally.
type Time = time.Duration

// Clock is a monotonic virtual clock. The zero value is ready to use and
// reads zero. Clock is safe for concurrent use; simulations that are fully
// sequential pay only an uncontended mutex.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Advance panics if d is negative: virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t. Moving to a time in the past is a
// no-op, which lets multiple independent timelines race the clock forward
// without coordination.
func (c *Clock) AdvanceTo(t Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Resource models a single FIFO-served resource in virtual time: a storage
// server, a network link, or a GPU. A request that arrives while the
// resource is busy waits until the in-flight work drains.
//
// Resource is the fundamental contention primitive of the simulation: two
// training jobs hammering the same storage server interleave through the
// same Resource and therefore slow each other down, exactly as the paper's
// shared-backend experiments require.
type Resource struct {
	busyUntil Time
	busyTotal time.Duration
}

// Acquire schedules a request arriving at the given virtual time with the
// given service duration. It returns the time the request starts being
// served and the time it completes. Service must be non-negative.
func (r *Resource) Acquire(arrival Time, service time.Duration) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("simclock: Acquire with negative service %v", service))
	}
	start = arrival
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + service
	r.busyUntil = end
	r.busyTotal += service
	return start, end
}

// BusyUntil reports the virtual time at which the resource drains, given the
// requests accepted so far.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyTotal reports the cumulative service time the resource has performed.
// It is the numerator of a utilization computation.
func (r *Resource) BusyTotal() time.Duration { return r.busyTotal }

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() { r.busyUntil = 0; r.busyTotal = 0 }

// Pool is a bank of identical resources with least-loaded dispatch. It models
// a resource with limited internal parallelism, e.g. a storage server that
// can serve k requests concurrently.
type Pool struct {
	units []Resource
}

// NewPool creates a pool of n units. n must be positive.
func NewPool(n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("simclock: NewPool with n=%d", n))
	}
	return &Pool{units: make([]Resource, n)}
}

// Acquire dispatches the request to the unit that can start it soonest.
func (p *Pool) Acquire(arrival Time, service time.Duration) (start, end Time) {
	best := 0
	for i := 1; i < len(p.units); i++ {
		if p.units[i].busyUntil < p.units[best].busyUntil {
			best = i
		}
	}
	return p.units[best].Acquire(arrival, service)
}

// Size reports the number of units in the pool.
func (p *Pool) Size() int { return len(p.units) }

// BusyTotal reports the cumulative service time across all units.
func (p *Pool) BusyTotal() time.Duration {
	var t time.Duration
	for i := range p.units {
		t += p.units[i].busyTotal
	}
	return t
}

// Reset idles every unit in the pool.
func (p *Pool) Reset() {
	for i := range p.units {
		p.units[i].Reset()
	}
}

// Event is a unit of scheduled work in an EventQueue.
type Event struct {
	At Time
	Fn func(now Time)

	seq int // tie-break so equal-time events run in scheduling order
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// EventQueue is a minimal discrete-event executor. Components schedule
// callbacks at virtual times; RunUntil drains every event at or before a
// horizon, advancing the associated clock as it goes. Events scheduled for
// the same instant run in the order they were scheduled.
type EventQueue struct {
	clock *Clock
	h     eventHeap
	seq   int
}

// NewEventQueue builds an event queue bound to the given clock.
func NewEventQueue(clock *Clock) *EventQueue {
	return &EventQueue{clock: clock}
}

// ScheduleAt enqueues fn to run at virtual time t. Scheduling in the past is
// clamped to the current time.
func (q *EventQueue) ScheduleAt(t Time, fn func(now Time)) {
	if now := q.clock.Now(); t < now {
		t = now
	}
	q.seq++
	heap.Push(&q.h, &Event{At: t, Fn: fn, seq: q.seq})
}

// ScheduleAfter enqueues fn to run d after the current virtual time.
func (q *EventQueue) ScheduleAfter(d time.Duration, fn func(now Time)) {
	q.ScheduleAt(q.clock.Now()+d, fn)
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// RunUntil executes every pending event with At <= horizon in time order,
// then advances the clock to the horizon. Events may schedule further
// events; those are honored if they also fall within the horizon.
func (q *EventQueue) RunUntil(horizon Time) {
	for len(q.h) > 0 && q.h[0].At <= horizon {
		e := heap.Pop(&q.h).(*Event)
		q.clock.AdvanceTo(e.At)
		e.Fn(e.At)
	}
	q.clock.AdvanceTo(horizon)
}

// RunAll executes every pending event in time order and leaves the clock at
// the time of the last event.
func (q *EventQueue) RunAll() {
	for len(q.h) > 0 {
		e := heap.Pop(&q.h).(*Event)
		q.clock.AdvanceTo(e.At)
		e.Fn(e.At)
	}
}
