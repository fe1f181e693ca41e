//go:build !race

package vt

const race = false
