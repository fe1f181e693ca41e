//go:build !goexperiment.synctest

package vt

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Run, in a build without the synctest experiment, runs the test t names —
// the one that called it, alone — in this package's test binary built with
// GOEXPERIMENT=synctest (and with the race detector when this binary has
// it), where Run puts it in a bubble, and fails t with the child's output
// when the child fails. f is not called here. Under -short it skips: the
// child's first build rebuilds the standard library (about 20 s), later
// ones come from the build cache.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if testing.Short() {
		t.Skip("virtual-clock test: runs in a GOEXPERIMENT=synctest child, skipped in -short")
	}
	bin, err := childBinary()
	if err != nil {
		t.Fatalf("building the GOEXPERIMENT=synctest test binary: %v", err)
	}
	levels := strings.Split(t.Name(), "/")
	for i, name := range levels {
		levels[i] = "^" + regexp.QuoteMeta(name) + "$"
	}
	args := []string{"-test.count=1", "-test.run", strings.Join(levels, "/")}
	if d, ok := t.Deadline(); ok {
		args = append(args, "-test.timeout", time.Until(d).String())
	}
	cmd := exec.Command(bin, args...)
	// A bubble that ends with a goroutine blocked panics; every goroutine's
	// stack names the one left behind.
	cmd.Env = append(os.Environ(), "GOTRACEBACK=all")
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

// child is the package's test binary under the experiment: one link per
// process, one exec per test.
var child struct {
	once sync.Once
	file *os.File // the unlinked binary, open for the process's life
	path string
	err  error
}

// childBinary builds the package in the working directory (go test runs a
// package's tests there) under the experiment, once per process, and
// returns a path that executes the binary. The file is unlinked as soon as
// it is open and runs from the descriptor under /proc, so nothing is left
// behind however the process ends; without /proc it stays in a temporary
// directory.
func childBinary() (string, error) {
	child.once.Do(func() {
		dir, err := os.MkdirTemp("", "vt-child")
		if err != nil {
			child.err = err
			return
		}
		bin := filepath.Join(dir, "synctest.test")
		args := []string{"test", "-c", "-o", bin}
		if race {
			args = append(args, "-race")
		}
		cmd := exec.Command(goTool(), append(args, ".")...)
		cmd.Env = append(os.Environ(), "GOEXPERIMENT="+withSynctest(os.Getenv("GOEXPERIMENT")))
		if out, err := cmd.CombinedOutput(); err != nil {
			child.err = fmt.Errorf("%v\n%s", err, out)
			os.RemoveAll(dir)
			return
		}
		child.path = bin
		fds := fmt.Sprintf("/proc/%d/fd", os.Getpid())
		if _, err := os.Stat(fds); err != nil {
			return
		}
		if child.file, child.err = os.Open(bin); child.err == nil {
			child.path = fmt.Sprintf("%s/%d", fds, child.file.Fd())
		}
		os.RemoveAll(dir)
	})
	return child.path, child.err
}

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
