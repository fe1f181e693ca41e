package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"time"

	"icache/internal/dataset"
)

// Analysis summarizes a request-event trace: the operator-facing view of
// what the cache did over a window. cmd/icache-trace builds it from a CSV
// dump; tests build it straight from a Recorder.
type Analysis struct {
	// Events is the total number of events analyzed.
	Events int
	// Window spans the first to last event time.
	Window time.Duration
	// ByKind counts events per kind.
	ByKind map[Kind]int
	// HitRatio counts substitutions as hits, matching the paper's metric.
	HitRatio float64
	// Epochs is the number of epoch boundaries seen.
	Epochs int
	// TopMissed lists the most-missed sample IDs, descending.
	TopMissed []IDCount
	// TopSubstituted lists the most-substituted-away requests, descending.
	TopSubstituted []IDCount
}

// IDCount pairs a sample with an event count.
type IDCount struct {
	ID    dataset.SampleID
	Count int
}

// Analyze summarizes a slice of events (as returned by Recorder.Snapshot).
// topN bounds the per-sample rankings.
func Analyze(events []Event, topN int) *Analysis {
	a := &Analysis{Events: len(events), ByKind: make(map[Kind]int)}
	if len(events) == 0 {
		return a
	}
	minAt, maxAt := events[0].At, events[0].At
	missed := make(map[dataset.SampleID]int)
	substituted := make(map[dataset.SampleID]int)
	for _, e := range events {
		a.ByKind[e.Kind]++
		if e.At < minAt {
			minAt = e.At
		}
		if e.At > maxAt {
			maxAt = e.At
		}
		switch e.Kind {
		case KindMiss:
			missed[e.ID]++
		case KindSubstitute:
			substituted[e.ID]++
		case KindEpoch:
			a.Epochs++
		}
	}
	a.Window = maxAt - minAt
	served := a.ByKind[KindHit] + a.ByKind[KindSubstitute]
	if total := served + a.ByKind[KindMiss]; total > 0 {
		a.HitRatio = float64(served) / float64(total)
	}
	a.TopMissed = topCounts(missed, topN)
	a.TopSubstituted = topCounts(substituted, topN)
	return a
}

func topCounts(m map[dataset.SampleID]int, n int) []IDCount {
	out := make([]IDCount, 0, len(m))
	for id, c := range m {
		out = append(out, IDCount{ID: id, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ReadCSV parses a trace dump produced by Recorder.WriteCSV. Both the
// pre-span 4-column format (at_ns,kind,id,arg) and the current 7-column
// format (…,trace,hop,dur_ns) are accepted, so old dumps stay readable.
func ReadCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // widths are validated per row below
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: parse csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	var events []Event
	for i, row := range rows[1:] {
		if len(row) != 4 && len(row) != 7 {
			return nil, fmt.Errorf("trace: row %d has %d columns, want 4 or 7", i+2, len(row))
		}
		at, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d at_ns: %w", i+2, err)
		}
		kind := slices.Index(kindNames[:], row[1])
		if kind < 0 {
			return nil, fmt.Errorf("trace: row %d unknown kind %q", i+2, row[1])
		}
		id, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d id: %w", i+2, err)
		}
		arg, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d arg: %w", i+2, err)
		}
		e := Event{At: time.Duration(at), Kind: Kind(kind), ID: dataset.SampleID(id), Arg: arg}
		if len(row) == 7 {
			traceID, err := strconv.ParseUint(row[4], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d trace: %w", i+2, err)
			}
			hop, err := strconv.ParseUint(row[5], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d hop: %w", i+2, err)
			}
			dur, err := strconv.ParseInt(row[6], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d dur_ns: %w", i+2, err)
			}
			e.TraceID, e.Hop, e.Dur = traceID, uint8(hop), time.Duration(dur)
		}
		events = append(events, e)
	}
	return events, nil
}

// Print renders the analysis as an operator-readable summary.
func (a *Analysis) Print(w io.Writer) {
	fmt.Fprintf(w, "events: %d over %s (%d epochs)\n", a.Events, a.Window.Round(time.Millisecond), a.Epochs)
	kinds := make([]Kind, 0, len(a.ByKind))
	for k := range a.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %d\n", k, a.ByKind[k])
	}
	fmt.Fprintf(w, "hit ratio (subs count as hits): %.1f%%\n", 100*a.HitRatio)
	if len(a.TopMissed) > 0 {
		fmt.Fprintln(w, "most-missed samples:")
		for _, ic := range a.TopMissed {
			fmt.Fprintf(w, "  sample %-8d %d misses\n", ic.ID, ic.Count)
		}
	}
	if len(a.TopSubstituted) > 0 {
		fmt.Fprintln(w, "most-substituted requests:")
		for _, ic := range a.TopSubstituted {
			fmt.Fprintf(w, "  sample %-8d %d substitutions\n", ic.ID, ic.Count)
		}
	}
}
