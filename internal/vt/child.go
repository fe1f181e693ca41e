//go:build !goexperiment.synctest

package vt

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Run, in a build without the synctest experiment, runs the test t names —
// the one that called it, alone — in a child `go test` of the same package
// built with GOEXPERIMENT=synctest, where Run puts it in a bubble, and fails
// t with the child's output when the child fails. f is not called here.
// Under -short it skips: the child's first build rebuilds the standard
// library (about 20 s), later ones come from the build cache.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if testing.Short() {
		t.Skip("virtual-clock test: runs in a GOEXPERIMENT=synctest child, skipped in -short")
	}
	levels := strings.Split(t.Name(), "/")
	for i, name := range levels {
		levels[i] = "^" + regexp.QuoteMeta(name) + "$"
	}
	cmd := exec.Command(goTool(), "test", "-count=1", "-run", strings.Join(levels, "/"), ".")
	cmd.Env = append(os.Environ(), "GOEXPERIMENT="+withSynctest(os.Getenv("GOEXPERIMENT")))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s under GOEXPERIMENT=synctest: %v\n%s", t.Name(), err, out)
	}
	if strings.Contains(string(out), "no tests to run") {
		t.Fatalf("%s under GOEXPERIMENT=synctest: the child ran no test\n%s", t.Name(), out)
	}
}

// Wait is a bubble's quiet point; without the experiment there is no bubble,
// and Run never calls the function that would call Wait.
func Wait() { panic("vt: Wait outside a bubble") }

// goTool is the go command: the one on PATH, else the toolchain's own.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// withSynctest adds synctest to a GOEXPERIMENT list.
func withSynctest(list string) string {
	if list == "" {
		return "synctest"
	}
	return list + ",synctest"
}
