// Package simclock provides the virtual-time primitives used by every
// simulated component in this repository.
//
// All experiments in the iCache reproduction run in simulated time so that a
// full paper evaluation (hundreds of simulated training epochs across many
// configurations) executes in seconds of wall-clock time and is perfectly
// deterministic. The package deliberately stays tiny: a point in virtual time
// and a FIFO resource (the building block for storage servers, network links
// and GPUs), banked into pools. There is no global clock and no event queue:
// each component carries its own timeline and advances it as requests pass —
// the L-cache loading thread, for one, rolls forward to the instant of each
// request that observes it.
package simclock

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It intentionally reuses time.Duration so arithmetic with
// service times reads naturally.
type Time = time.Duration

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
