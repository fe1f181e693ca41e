//go:build goexperiment.synctest

// A bubble needs the timer channels of Go 1.23 (go.mod says 1.22), and only
// a build with the experiment runs one.

//go:debug asynctimerchan=0

package vt_test
