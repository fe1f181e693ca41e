package vt_test

import (
	"testing"
	"time"

	"icache/internal/vt"
)

// TestRunAdvancesAVirtualClock: an hour of sleeping inside the bubble costs
// no wall time, and a cleanup the test registers runs inside the bubble.
func TestRunAdvancesAVirtualClock(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			time.Sleep(time.Hour)
			close(done)
		}()
		t.Cleanup(func() { <-done })
		time.Sleep(time.Hour + time.Minute)
		if got := time.Since(start); got != time.Hour+time.Minute {
			t.Errorf("virtual clock read %v after sleeping 1h1m", got)
		}
	})
}
