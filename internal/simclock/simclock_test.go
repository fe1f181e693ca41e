package simclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceIdleStartsImmediately(t *testing.T) {
	var r Resource
	start, end := r.Acquire(7*time.Millisecond, 2*time.Millisecond)
	if start != 7*time.Millisecond || end != 9*time.Millisecond {
		t.Fatalf("Acquire = (%v, %v), want (7ms, 9ms)", start, end)
	}
}

func TestResourceQueuesFIFO(t *testing.T) {
	var r Resource
	r.Acquire(0, 10*time.Millisecond)
	start, end := r.Acquire(2*time.Millisecond, 5*time.Millisecond)
	if start != 10*time.Millisecond {
		t.Fatalf("second request start = %v, want 10ms (queued)", start)
	}
	if end != 15*time.Millisecond {
		t.Fatalf("second request end = %v, want 15ms", end)
	}
	if got := r.BusyTotal(); got != 15*time.Millisecond {
		t.Fatalf("BusyTotal = %v, want 15ms", got)
	}
}

func TestResourceGapLeavesIdleTime(t *testing.T) {
	var r Resource
	r.Acquire(0, time.Millisecond)
	start, _ := r.Acquire(10*time.Millisecond, time.Millisecond)
	if start != 10*time.Millisecond {
		t.Fatalf("start = %v, want 10ms (resource was idle)", start)
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire with negative service did not panic")
		}
	}()
	var r Resource
	r.Acquire(0, -time.Millisecond)
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(0, time.Second)
	r.Reset()
	if r.BusyUntil() != 0 || r.BusyTotal() != 0 {
		t.Fatalf("after Reset: busyUntil=%v busyTotal=%v, want 0,0", r.BusyUntil(), r.BusyTotal())
	}
}

// Completion times of a FIFO resource must be non-decreasing when arrivals
// are non-decreasing, and every request must take at least its service time.
func TestResourceInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Resource
		var arrival Time
		var prevEnd Time
		for i := 0; i < 200; i++ {
			arrival += time.Duration(rng.Intn(1000)) * time.Microsecond
			service := time.Duration(rng.Intn(5000)) * time.Microsecond
			start, end := r.Acquire(arrival, service)
			if start < arrival {
				return false
			}
			if end-start != service {
				return false
			}
			if end < prevEnd {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDispatchesLeastLoaded(t *testing.T) {
	p := NewPool(2)
	p.Acquire(0, 10*time.Millisecond) // unit 0 busy until 10ms
	start, _ := p.Acquire(0, time.Millisecond)
	if start != 0 {
		t.Fatalf("second request should land on idle unit, start = %v", start)
	}
	// Both busy now; third request queues on the unit that frees first.
	start, _ = p.Acquire(0, time.Millisecond)
	if start != time.Millisecond {
		t.Fatalf("third request start = %v, want 1ms", start)
	}
}

func TestPoolSizeAndReset(t *testing.T) {
	p := NewPool(3)
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	p.Acquire(0, time.Second)
	if p.BusyTotal() != time.Second {
		t.Fatalf("BusyTotal = %v, want 1s", p.BusyTotal())
	}
	p.Reset()
	if p.BusyTotal() != 0 {
		t.Fatalf("BusyTotal after reset = %v, want 0", p.BusyTotal())
	}
}

func TestNewPoolZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}
