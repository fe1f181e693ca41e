package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// RingStats is the trace-ring summary the /debug/obs page renders. The
// caller extracts it from whatever recorder it holds (nil = tracing
// disabled), keeping this package free of a dependency on internal/trace.
type RingStats struct {
	Retained int    // events currently held in the ring
	Total    uint64 // events ever recorded (including overwritten)
}

// WriteDebug renders the human-readable observability summary shared by
// the icache-server and icache-dkv /debug/obs endpoints: the per-stage
// latency table (count, p50/p95/p99, max), the trace ring's state, and the
// slow-request threshold.
func WriteDebug(w io.Writer, reg *Registry, ring *RingStats, slowThresh time.Duration) {
	snaps := reg.Snapshot()
	if len(snaps) == 0 {
		fmt.Fprintln(w, "stage histograms: disabled")
	} else {
		fmt.Fprintf(w, "%-22s %10s %12s %12s %12s %12s\n",
			"stage", "count", "p50", "p95", "p99", "max")
		for _, ns := range snaps {
			fmt.Fprintf(w, "%-22s %10d %12s %12s %12s %12s\n",
				ns.Name, ns.Snap.Count, ns.Snap.P50(), ns.Snap.P95(), ns.Snap.P99(), ns.Snap.Max())
		}
	}
	if ring == nil {
		fmt.Fprintln(w, "trace ring: disabled")
	} else {
		fmt.Fprintf(w, "trace ring: %d retained / %d total\n", ring.Retained, ring.Total)
	}
	if slowThresh > 0 {
		fmt.Fprintf(w, "slow-request threshold: %s\n", slowThresh)
	} else {
		fmt.Fprintln(w, "slow-request log: disabled")
	}
}

// writeJSON answers with doc as the indented JSON document the
// /debug/journal and /debug/timeline endpoints serve.
func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
