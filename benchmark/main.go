// Command benchmark is the repository's one performance benchmark: it boots
// the real serving stack in-process over loopback TCP, through the public
// constructors cmd/icache-server and cmd/icache-dkv use, runs one of four
// named workloads against it, checks every output, and prints every metric
// by name with its unit. README.md explains the workloads and the metrics;
// ../BENCHMARK.json is the contract a driver runs it under.
//
//	bash benchmark/run.sh --workload hit_storm --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the end-to-end metrics are measured with all observability
// off. With --trace 1 the same workload runs with the stage registry armed
// and the benchmark's decorators recording spans, and the per-layer metrics
// are reported; the spans go to benchmark/out/trace-<workload>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // test-scale sizes (bench_test.go)
	outDir   string // where the span file goes
}

// report is one run's result.
type report struct {
	defs      []metricDef
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []string // output checks that failed
	warnings  []string // conditions that make the timings suspect
	sizes     map[string]float64
	procs     int      // GOMAXPROCS the workload was set up and measured under
	notes     []string // printed with the report's header
}

func (r *report) correct() bool { return r.failed == 0 && len(r.checks) == 0 }

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// ready builds the workload and sets it up, tearing it down again if set-up
// fails.
func ready(name string, e env) (workload, time.Duration, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := w.setup(); err != nil {
		w.teardown() // the set-up error is the one worth reporting
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(t0), nil
}

// measureOnce runs one window on a ready workload and tears it down.
func measureOnce(w workload, d time.Duration) (*window, error) {
	win, err := w.measure(d)
	if terr := w.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	return win, err
}

// measureAtSpeed is measureOnce for a window of d in all, bracketed, when
// there is a probe, by two readings of the machine's speed taken out of d.
// Without a probe the speed reads 1.
func measureAtSpeed(w workload, probe *speedProbe, d time.Duration) (win *window, speed float64, err error) {
	if probe == nil {
		win, err = measureOnce(w, d)
		return win, 1, err
	}
	sw := speedWindow(d)
	speed, err = probe.around(sw, func() (err error) {
		win, err = measureOnce(w, d-2*sw)
		return err
	})
	return win, speed, err
}

// newProbe starts the speed probe a CPU-bound workload is measured beside;
// other workloads get none.
func newProbe(w workload) (*speedProbe, error) {
	if !w.cpuBound() {
		return nil, nil
	}
	return newSpeedProbe()
}

func execute(cfg config) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds %g, want > 0", cfg.seconds)
	}
	e := env{seed: cfg.seed, smoke: cfg.smoke}
	shape, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, err
	}
	procs, restore := withProcs(shape)
	defer restore()
	if cfg.trace {
		rep, err := executeTraced(cfg, restore)
		if rep != nil {
			rep.procs = procs
		}
		return rep, err
	}
	rounds := shape.rounds()
	rep := &report{defs: endToEnd, sizes: shape.sizes(), procs: procs}
	probe, err := newProbe(shape)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	round := dur(cfg.seconds / float64(rounds))
	var setups, rates, p50s, speeds []float64
	for r := 0; r < rounds; r++ {
		w, took, err := ready(cfg.workload, e)
		if err != nil {
			return nil, err
		}
		// A CPU-bound workload's numbers are read at machine speed 1: rates
		// divided by the speed its round ran at, times multiplied by it.
		win, speed, err := measureAtSpeed(w, probe, round)
		if err != nil {
			return nil, err
		}
		speeds = append(speeds, speed)
		setups = append(setups, secs(took)*speed)
		rates = append(rates, win.samplesPerS/speed)
		p50s = append(p50s, win.batchP50Ms*speed)
		rep.attempted += win.attempted
		rep.failed += win.failed
		rep.checks = append(rep.checks, win.checks...)
		rep.warnings = append(rep.warnings, win.warnings...)
	}
	rep.metrics = map[string]float64{
		"samples_per_s": median(rates),
		"batch_p50_ms":  median(p50s),
		"setup_s":       median(setups),
	}
	if probe != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("machine speed %.4f (median round; the metrics below are read at speed 1)", median(speeds)))
	}
	return rep, nil
}

// executeTraced measures a short untraced window first, then the traced
// window on a freshly set-up stack (the stage registry can only be armed
// before a server starts), then the layer probes. Both windows run under the
// workload's GOMAXPROCS; defaultProcs restores the default for the probes,
// two of which time two goroutines contending for one lock.
func executeTraced(cfg config, defaultProcs func()) (*report, error) {
	w, _, err := ready(cfg.workload, env{seed: cfg.seed, smoke: cfg.smoke})
	if err != nil {
		return nil, err
	}
	ref, err := measureOnce(w, dur(cfg.seconds/4))
	if err != nil {
		return nil, err
	}

	rec := newRecorder(cfg.workload)
	if w, _, err = ready(cfg.workload, env{seed: cfg.seed, smoke: cfg.smoke, traced: true, rec: rec}); err != nil {
		return nil, err
	}
	sizes := w.sizes()
	probe, err := newProbe(w)
	if err != nil {
		w.teardown()
		return nil, err
	}
	defer probe.close()
	win, speed, err := measureAtSpeed(w, probe, dur(cfg.seconds*3/4))
	if err != nil {
		return nil, err
	}
	defaultProcs()
	spans, dropped := rec.finish()
	if err := rec.writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}

	m := layerMetrics(win, ref)
	m["trace.spans"], m["trace.spans_dropped"] = float64(spans), float64(dropped)
	if probe != nil {
		m["machine.speed"] = speed // the per-layer numbers are as measured, not read at speed 1
	}
	if err := runProbes(m); err != nil {
		return nil, err
	}
	rep := &report{defs: perLayer, metrics: m, attempted: win.attempted + ref.attempted,
		failed: win.failed + ref.failed, checks: append(ref.checks, win.checks...),
		warnings: append(ref.warnings, win.warnings...), sizes: sizes}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.checks = append(rep.checks, fmt.Sprintf("metric %s is %v", k, v))
			m[k] = 0
		}
	}
	return rep, nil
}

// identity is what two reports must share to be comparable.
func identity(cfg config, sizes map[string]float64, procs int) []string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	var sz []string
	for k, v := range sizes {
		sz = append(sz, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(sz)
	return []string{
		"commit " + commit,
		fmt.Sprintf("gomaxprocs %d", procs),
		fmt.Sprintf("nproc %d", runtime.NumCPU()),
		"go " + runtime.Version(),
		"kernel " + kernel,
		fmt.Sprintf("workload %s seed %d seconds %g trace %t", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		"sizes " + strings.Join(sz, " "),
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the identity, every metric by name with its unit, any failed
// check, and last the one-line JSON result the driver reads.
func (r *report) print(out io.Writer, cfg config) error {
	for _, line := range append(identity(cfg, r.sizes, r.procs), r.notes...) {
		fmt.Fprintln(out, "#", line)
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metricJSON{}}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		fmt.Fprintf(out, "%-44s %v %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricJSON{v, d.unit}
	}
	for _, c := range r.warnings {
		fmt.Fprintln(out, "WARNING:", c)
	}
	for _, c := range r.checks {
		fmt.Fprintln(out, "FAILED CHECK:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the span file is written to")
	flag.Parse()
	cfg.trace = trace != 0

	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
