//go:build race

package vt

// race says this binary has the race detector, so Run's child gets it too.
const race = true
