//go:build goexperiment.synctest

package vt

import (
	"testing"
	"testing/synctest"
)

// Run runs f as the subtest "vt" of t inside a synctest bubble. Everything f
// starts — servers, clients, their goroutines and timers — belongs to the
// bubble, and its cleanups run inside it too, before the bubble ends; Run
// fails (synctest panics) if a goroutine of the bubble is left blocked.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { t.Run("vt", f) })
}

// Wait blocks until every other goroutine of the calling bubble is durably
// blocked: the system under test has done everything it can without the
// clock moving — a quiet point at which a test may check its invariants.
func Wait() { synctest.Wait() }
