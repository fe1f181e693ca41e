package shell

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"icache/internal/obs"
	"icache/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// The debug surface serves /debug/obs, /debug/timeline and /debug/journal
// beside the daemon's own routes whatever the flags, and net/http/pprof
// only under -pprof.
func TestDebugRoutes(t *testing.T) {
	for _, pprofOn := range []bool{false, true} {
		reg := obs.NewRegistry()
		reg.Hist("request").Record(time.Millisecond)
		journal := obs.NewJournal(8)
		journal.Add(obs.EventEpoch, 0, 0, 1, "epoch 1")
		d := &Debug{
			Point:    func() map[string]float64 { return map[string]float64{"owned": 1} },
			Journal:  journal,
			Pprof:    pprofOn,
			Registry: reg,
			Tracer:   trace.NewRecorder(8),
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
		at := d.Serve("127.0.0.1:0", mux)
		if at == nil {
			t.Fatal("Serve on a free loopback port returned no address")
		}
		base := "http://" + at.String()
		for path, want := range map[string]string{
			"/healthz":        "ok",
			"/debug/obs":      "trace ring: 0 retained / 0 total",
			"/debug/timeline": `"points"`,
			"/debug/journal":  "epoch 1",
		} {
			if code, body := get(t, base+path); code != http.StatusOK || !strings.Contains(body, want) {
				t.Errorf("pprof=%t: GET %s = %d %q, want 200 with %q", pprofOn, path, code, body, want)
			}
		}
		if code, _ := get(t, base+"/debug/pprof/"); (code == http.StatusOK) != pprofOn {
			t.Errorf("pprof=%t: GET /debug/pprof/ = %d", pprofOn, code)
		}
		d.Shutdown()
		if _, err := http.Get(base + "/debug/obs"); err == nil {
			t.Errorf("pprof=%t: the debug surface still answers after Shutdown", pprofOn)
		}
	}
}

// Without an address there is no surface, and Shutdown has nothing to stop.
func TestDebugWithoutAddress(t *testing.T) {
	d := &Debug{Journal: obs.NewJournal(8)}
	if at := d.Serve("", http.NewServeMux()); at != nil {
		t.Fatalf("Serve(\"\") listens on %s", at)
	}
	d.Shutdown()
}

func TestGateOnlyWhenAsked(t *testing.T) {
	if g := Gate(0, 0); g != nil {
		t.Fatal("a gate with neither -max-inflight nor -target-queue-delay")
	}
	if Gate(4, 0) == nil || Gate(0, 5*time.Millisecond) == nil {
		t.Fatal("no gate for a -max-inflight or -target-queue-delay")
	}
}

// A dump that fails is logged as a failure and never as dumped; one that
// succeeds says where it went.
func TestDumpTraceLogsTheOutcome(t *testing.T) {
	var buf bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&buf)
	dir := t.TempDir()
	tracer := trace.NewRecorder(8)
	tracer.Record(0, trace.KindHit, 1, 0)

	DumpTrace(tracer, filepath.Join(dir, "missing", "trace.csv"), 0)
	if out := buf.String(); !strings.Contains(out, "failed") || strings.Contains(out, "dumped") {
		t.Errorf("a dump into a missing directory logged %q", out)
	}
	buf.Reset()
	path := filepath.Join(dir, "trace.csv")
	DumpTrace(tracer, path, 0)
	if out := buf.String(); !strings.Contains(out, "dumped to "+path) {
		t.Errorf("a written dump logged %q", out)
	}
}

// A SIGTERM runs the shutdown steps, whose last one closes the server: the
// net.ErrClosed that ends serve is the clean stop and logs no error, and Run
// returns only once the steps after the close have finished too.
func TestRunStopsCleanlyOnSignal(t *testing.T) {
	var buf bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&buf)
	closed, served := make(chan struct{}), make(chan struct{})
	finished := false
	Run(func() error {
		defer close(served)
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Error(err)
		}
		<-closed
		return net.ErrClosed
	}, func() {
		close(closed) // the server's Close: the listener goes first...
		<-served      // ...and its handlers drain after serve has returned
		finished = true
	})
	if !finished {
		t.Error("Run returned before the shutdown steps finished")
	}
	if out := buf.String(); strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "shutting down\n") {
		t.Errorf("a clean stop logged %q, want only the shutdown notice", out)
	}
}

// A listener that dies with no signal is logged, net.ErrClosed included, and
// the shutdown steps do not run.
func TestRunLogsADeadListener(t *testing.T) {
	var buf bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&buf)
	for _, err := range []error{errors.New("accept: too many open files"), net.ErrClosed} {
		buf.Reset()
		Run(func() error { return err }, func() { t.Error("shutdown ran with no signal") })
		if out := buf.String(); !strings.Contains(out, err.Error()) {
			t.Errorf("a listener dead of %v logged %q", err, out)
		}
	}
}
