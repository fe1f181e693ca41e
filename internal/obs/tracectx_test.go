package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTraceCtx(t *testing.T) {
	var zero TraceCtx
	if zero.Valid() {
		t.Fatal("zero TraceCtx claims validity")
	}
	tc := TraceCtx{ID: NewTraceID()}
	if !tc.Valid() || tc.Hop != 0 {
		t.Fatalf("fresh ctx invalid: %+v", tc)
	}
	next := tc.Next()
	if next.ID != tc.ID || next.Hop != 1 {
		t.Fatalf("Next = %+v, want same ID hop 1", next)
	}
	// Saturation, not wraparound.
	tc.Hop = ^uint8(0)
	if sat := tc.Next(); sat.Hop != ^uint8(0) {
		t.Fatalf("hop wrapped to %d", sat.Hop)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[uint64]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				id := NewTraceID()
				if id == 0 {
					t.Error("zero trace ID issued")
					return
				}
				mu.Lock()
				dup := seen[id]
				seen[id] = true
				mu.Unlock()
				if dup {
					t.Errorf("duplicate trace ID %x", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSampler(t *testing.T) {
	if NewSampler(0) != nil || NewSampler(-3) != nil {
		t.Fatal("non-positive rate must return the nil (never) sampler")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler sampled")
	}
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampler hit %d/400", hits)
	}
	every := NewSampler(1)
	if !every.Sample() || !every.Sample() {
		t.Fatal("1-in-1 sampler skipped")
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(time.Second)
	base := time.Unix(1000, 0)
	if !l.Allow(base) {
		t.Fatal("first event blocked")
	}
	if l.Allow(base.Add(500 * time.Millisecond)) {
		t.Fatal("event inside the interval allowed")
	}
	if !l.Allow(base.Add(time.Second)) {
		t.Fatal("event after the interval blocked")
	}
}
