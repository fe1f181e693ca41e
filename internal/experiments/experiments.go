// Package experiments contains one runner per table and figure in the
// paper's evaluation (§V), plus the motivation experiments of §II. Each
// runner builds the workload from the other packages, executes it in
// virtual time, and returns a Report with the same rows/series the paper
// presents. DESIGN.md's per-experiment index maps IDs to paper artifacts.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

// Options control experiment scale. Zero value = paper scale.
type Options struct {
	// Quick shrinks epoch counts and the ImageNet surrogate so the whole
	// suite runs in seconds (used by `go test -bench` and CI).
	Quick bool
	// Seed offsets every job seed, for run-to-run variation studies.
	Seed int64
}

// perfEpochs returns (total, warmup) epoch counts for timing experiments;
// steady-state rows average epochs ≥ warmup so the history-based sampler
// has converged, matching the paper's measurement of warmed-up training.
func (o Options) perfEpochs() (total, warmup int) {
	if o.Quick {
		return 10, 6
	}
	return 16, 10
}

// accuracyEpochs returns the epoch count for accuracy experiments (the
// paper trains 90 epochs).
func (o Options) accuracyEpochs() int {
	if o.Quick {
		return 30
	}
	return 90
}

// cifar returns the CIFAR10 dataset.
func (o Options) cifar() dataset.Spec { return dataset.CIFAR10() }

// imagenet returns the ImageNet surrogate at experiment scale.
func (o Options) imagenet() dataset.Spec {
	if o.Quick {
		s := dataset.ImageNetScaled()
		s.NumSamples /= 5 // 2% of the real cardinality
		s.Name = "imagenet-2pct"
		return s
	}
	return dataset.ImageNetScaled()
}

// Report is one experiment's output table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners, filled by init functions in the
// per-area files.
var registry = map[string]Runner{}

var order []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	order = append(order, id)
}

// Run executes the experiment with the given ID.
func Run(id string, opts Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(opts)
}

// IDs lists every registered experiment in presentation order: the paper's
// figures and tables first (numerically), then the design ablations, then
// the extensions.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.SliceStable(out, func(i, j int) bool { return idRank(out[i]) < idRank(out[j]) })
	return out
}

// idRank orders experiment IDs for presentation.
func idRank(id string) int {
	var n int
	switch {
	case strings.HasPrefix(id, "fig"):
		fmt.Sscanf(id, "fig%d", &n)
		return n
	case strings.HasPrefix(id, "tab"):
		fmt.Sscanf(id, "tab%d", &n)
		return 100 + n
	case strings.HasPrefix(id, "abl-"):
		return 200
	default: // ext-*
		return 300
	}
}

// Scheme identifies a data-service configuration under test.
type Scheme string

// The schemes of §V-A plus the ablation rungs of §V-D.
const (
	SchemeDefault    Scheme = "default"
	SchemeBase       Scheme = "base"
	SchemeQuiver     Scheme = "quiver"
	SchemeCoorDL     Scheme = "coordl"
	SchemeILFU       Scheme = "ilfu"
	SchemeICache     Scheme = "icache"
	SchemeOracle     Scheme = "oracle"
	SchemeIIS        Scheme = "+iis" // IIS over plain LRU (Fig. 10 rung)
	SchemeHC         Scheme = "+hc"  // IIS + H-cache, no L-cache
	SchemeNoCache    Scheme = "nocache"
	SchemeNoCacheCIS Scheme = "nocache-cis"
)

// NewService builds a data service of the given scheme over a fresh
// backend. capFrac is the cache size as a fraction of the dataset. Every
// scheme is an icache.Server: iCache's H/L split, or one of the baselines'
// cache.Policy with the sampler and substitution its paper system uses.
func NewService(scheme Scheme, spec dataset.Spec, storageCfg storage.Config, capFrac float64, seed int64) (train.DataService, *storage.Backend, error) {
	back, err := storage.NewBackend(spec, storageCfg)
	if err != nil {
		return nil, nil, err
	}
	capBytes := int64(float64(spec.TotalBytes()) * capFrac)
	b := icache.Baseline{Name: string(scheme)}
	switch scheme {
	case SchemeDefault:
		b.Policy = cache.NewLRU(capBytes)
	case SchemeBase:
		b.Policy, b.Schedule = cache.NewLRU(capBytes), icache.ScheduleCIS
	case SchemeQuiver:
		b.Policy, b.Substitute = cache.NewLRU(capBytes), true
	case SchemeCoorDL:
		b.Policy = cache.NewMinIO(capBytes)
	case SchemeILFU:
		b.Policy, b.Schedule = cache.NewLFU(capBytes), icache.ScheduleIIS
	case SchemeIIS:
		b.Policy, b.Schedule = cache.NewLRU(capBytes), icache.ScheduleIIS
	case SchemeOracle:
		// The whole dataset in memory: the I/O-free lower bound of Fig. 8.
		all := cache.NewUnbounded()
		for id := dataset.SampleID(0); int(id) < spec.NumSamples; id++ {
			all.Admit(id, spec.SampleBytes(id))
		}
		b.Policy, b.Schedule = all, icache.ScheduleIIS
	case SchemeNoCache:
		b.Policy = cache.None()
	case SchemeNoCacheCIS:
		b.Policy, b.Schedule = cache.None(), icache.ScheduleCIS
	case SchemeHC:
		cfg := icache.DefaultConfig(capBytes)
		cfg.EnableLCache = false
		srv, err := icache.NewServer(back, cfg, scaledIIS(capFrac, 1.0), seed)
		if err != nil {
			return nil, nil, err
		}
		return srv, back, nil
	case SchemeICache:
		srv, err := icache.NewServer(back, icache.DefaultConfig(capBytes), scaledIIS(capFrac, icache.InitialHShare), seed)
		if err != nil {
			return nil, nil, err
		}
		return srv, back, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	return icache.NewBaselineServer(back, b), back, nil
}

// scaledIIS sizes the H-list to the H-cache, as §III-A does ("the cache
// holds 20% samples" → an H-list of the same cardinality): with a larger
// cache the H-region covers more samples, so the sampler treats more of the
// dataset as H. Capped so H-selection cannot exceed the per-epoch target.
func scaledIIS(capFrac, hShare float64) sampling.IISConfig {
	iis := sampling.DefaultIIS()
	hFrac := capFrac * hShare
	if max := iis.TargetFraction / iis.HSelectProb * 0.98; hFrac > max {
		hFrac = max
	}
	if hFrac > iis.HFraction {
		iis.HFraction = hFrac
	}
	return iis
}

// runOne trains one model under one scheme and returns the full run stats.
func runOne(scheme Scheme, model train.ModelProfile, spec dataset.Spec, storageCfg storage.Config,
	capFrac float64, epochs int, mutate func(*train.Config), opts Options) (metrics.RunStats, error) {
	svc, _, err := NewService(scheme, spec, storageCfg, capFrac, 42+opts.Seed)
	if err != nil {
		return metrics.RunStats{}, err
	}
	cfg := train.DefaultConfig(model, spec)
	cfg.Epochs = epochs
	cfg.Seed = 1 + opts.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	job, err := train.NewJob(cfg, svc)
	if err != nil {
		return metrics.RunStats{}, err
	}
	return job.Run(), nil
}

// steady trims warmup epochs so averages reflect warmed-up training.
func steady(rs metrics.RunStats, warmup int) metrics.RunStats {
	if len(rs.Epochs) > warmup {
		out := rs
		out.Epochs = rs.Epochs[warmup:]
		return out
	}
	return rs
}

// fmtDur renders a virtual duration with millisecond precision.
func fmtDur(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtX renders a speedup factor.
func fmtX(f float64) string { return fmt.Sprintf("%.2fx", f) }

// fmtPct renders a ratio as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// fmtAcc renders an accuracy in percent.
func fmtAcc(f float64) string { return fmt.Sprintf("%.2f", f) }

// avgCompute averages the per-epoch GPU compute time of a run.
func avgCompute(rs metrics.RunStats) time.Duration {
	if len(rs.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range rs.Epochs {
		total += e.Compute
	}
	return total / time.Duration(len(rs.Epochs))
}
