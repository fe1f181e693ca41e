// Command icache-trace analyzes the request-event traces dumped by the
// -trace-csv flag of icache-server, icache-dkv and icache-train, merged into
// one: event counts, hit ratio, epoch
// boundaries, the most-missed / most-substituted samples, and — when the
// dump carries span events from cross-node request tracing — the per-hop
// latency breakdown and the slowest request chains. This is the operator's
// view into *why* the cache behaves as it does.
//
// Usage:
//
//	icache-server -trace-csv /tmp/cache-trace.csv ...   # run, then stop
//	icache-trace /tmp/cache-trace.csv
//	icache-trace -slow 5 /tmp/cache-trace.csv           # 5 slowest chains
//	icache-trace -slow 5 client.csv node0.csv dir.csv   # one chain across the hops
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"icache/internal/trace"
)

func main() {
	topN := flag.Int("top", 10, "how many samples to show in the rankings")
	slowN := flag.Int("slow", 0, "show the N slowest traced request chains with full hop detail")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: icache-trace [-top N] [-slow N] <trace.csv>...")
		os.Exit(2)
	}
	var events []trace.Event
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("icache-trace: %v", err)
		}
		evs, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("icache-trace: %s: %v", path, err)
		}
		events = append(events, evs...)
	}
	trace.Analyze(events, *topN).Print(os.Stdout)
	trace.PrintSpans(os.Stdout, trace.Chains(events), *slowN)
}
