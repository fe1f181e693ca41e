// Command icache-top is a terminal cluster monitor for icache deployments:
// it polls each node's metrics endpoint (/metrics) and
// in-process timeline (/debug/timeline) and renders a one-row-per-node
// view of request/hit/shed rates, overload-gate and breaker state,
// prefetch timeliness, plan progress, the dominant eviction reason,
// membership activity and the current epoch — plus a req/s sparkline per
// node from the timeline ring. REQ/S counts samples the cache served and
// SHED/S frames the gate refused before they reached it; a server has no
// on-time information, so there is no goodput column (the load generator's
// report has one).
//
// Usage:
//
//	icache-top -nodes 127.0.0.1:7830,127.0.0.1:7832            # live view
//	icache-top -nodes 127.0.0.1:7830,127.0.0.1:7832 -once      # one frame
//
// The addresses are the nodes' -metrics-addr endpoints, not their cache
// listen ports. Rates come from each node's own timeline ring, so even
// -once reports meaningful per-second figures.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"icache/internal/top"
)

func main() {
	nodes := flag.String("nodes", "127.0.0.1:7830", "comma-separated metrics addresses of the nodes to watch")
	interval := flag.Duration("interval", 2*time.Second, "poll period")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
	timeout := flag.Duration("timeout", 3*time.Second, "per-node scrape timeout")
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("icache-top: -nodes is empty")
	}
	client := &http.Client{Timeout: *timeout}

	render := func() {
		views := top.Collect(client, addrs)
		if !*once {
			fmt.Print("\033[H\033[2J") // home + clear: repaint in place
		}
		fmt.Printf("icache-top — %d node(s), %s\n\n", len(addrs), time.Now().Format("15:04:05"))
		top.Render(os.Stdout, views)
	}

	render()
	if *once {
		return
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for range tick.C {
		render()
	}
}
