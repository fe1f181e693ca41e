//go:build goexperiment.synctest

// A virtual-clock bubble (internal/vt) needs the timer channels of Go 1.23
// (go.mod says 1.22); only a build with the experiment runs one.

//go:debug asynctimerchan=0

package faults
