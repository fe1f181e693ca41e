// Package vt runs a test on a virtual clock. Run puts the test inside a
// testing/synctest bubble: time.Sleep, timers and tickers advance only when
// every goroutine of the bubble is blocked, so a test of lease expiry,
// retry backoff or a heartbeat ticker takes microseconds of wall time and
// sees the same clock readings on every run. A bubble ends only when every
// goroutine it started has, so a test that leaves one blocked — a leaked
// redial loop, a worker nobody stops — fails. Every synctest call of the
// repository is in this package.
//
// Go 1.24 builds testing/synctest only under GOEXPERIMENT=synctest. In a
// build without the experiment, Run re-runs the one test it was given in
// the package's test binary built with it (linked once per process), so a
// plain `go test ./...` runs the virtual-clock tests too. The bubble tests
// reach their servers through an in-memory network (transporttest.Network),
// because a socket read is not a block the bubble can wait out.
package vt
