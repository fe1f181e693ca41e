package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromWriter renders Prometheus text exposition format (version 0.0.4)
// using only the standard library. Callers emit families in a fixed code
// order and the writer emits each family's lines deterministically, so a
// scrape is byte-stable for unchanged counter values — the property the
// exposition golden tests pin.
//
// Errors are sticky: the first write error is remembered and subsequent
// calls become no-ops, so call sites can emit a whole document and check
// Err once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// sanitizeHelp keeps HELP text single-line per the exposition format.
func sanitizeHelp(help string) string {
	help = strings.ReplaceAll(help, "\\", `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trippable representation, with integral values kept
// integral for readability.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *PromWriter) header(name, help, typ string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, sanitizeHelp(help))
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

// Metric emits one unlabeled sample of the given TYPE ("counter" or
// "gauge"): the one call a table of series is looped through.
func (p *PromWriter) Metric(name, help, typ string, v float64) {
	p.header(name, help, typ)
	p.printf("%s %s\n", name, formatFloat(v))
}

// Histogram emits a snapshot as a Prometheus histogram in seconds (the
// canonical unit for latency histograms: name should end in "_seconds").
// Cumulative buckets cover every fixed bucket bound plus +Inf, followed by
// _sum and _count, then p50/p95/p99 estimates as companion gauges named
// <base>_p50_seconds etc. (Prometheus summaries are client-computed
// quantiles; emitting them as plainly named gauges keeps the exposition
// valid while giving curl-level consumers the numbers directly.)
func (p *PromWriter) Histogram(name, help string, s HistSnapshot) {
	p.header(name, help, "histogram")
	var cum uint64
	for k := 0; k < NumBuckets; k++ {
		cum += s.Buckets[k]
		le := float64(BucketUpper(k)) / 1e9
		p.printf("%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	p.printf("%s_sum %s\n", name, formatFloat(float64(s.Sum)/1e9))
	p.printf("%s_count %d\n", name, s.Count)
	base := strings.TrimSuffix(name, "_seconds")
	for _, q := range []struct {
		tag string
		v   float64
	}{
		{"p50", s.Quantile(0.50).Seconds()},
		{"p95", s.Quantile(0.95).Seconds()},
		{"p99", s.Quantile(0.99).Seconds()},
	} {
		qn := base + "_" + q.tag + "_seconds"
		p.header(qn, "", "gauge")
		p.printf("%s %s\n", qn, strconv.FormatFloat(q.v, 'g', -1, 64))
	}
}

// Registry emits every histogram in reg (sorted by name) under
// prefix+"_"+name+"_seconds".
func (p *PromWriter) Registry(prefix string, reg *Registry) {
	for _, ns := range reg.Snapshot() {
		p.Histogram(prefix+"_"+ns.Name+"_seconds", "per-stage latency for "+ns.Name, ns.Snap)
	}
}
