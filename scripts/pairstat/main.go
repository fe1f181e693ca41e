// Command pairstat reduces the raw outputs of scripts/benchmark-pairs.sh —
// files named <workload>.<parent|change>.<seed>.txt, each ending in the
// benchmark's one-line JSON result — to the paired-run table: per workload and
// end-to-end metric each side's median and quartiles, the ratio of the medians
// and how many pairs the change won (ties count for neither side), then every
// run's failed/correct. Metric names and directions come from BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// quantile reads the q-quantile of xs by linear interpolation between ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// readResult parses the last line of one run's output.
func readResult(path string) (result, error) {
	var r result
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s: no result line: %w", path, err)
	}
	return r, nil
}

func main() {
	dir := flag.String("dir", "", "directory of <workload>.<side>.<seed>.txt run outputs")
	flag.Parse()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairstat:", err)
		os.Exit(2)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		fmt.Fprintln(os.Stderr, "pairstat: BENCHMARK.json:", err)
		os.Exit(2)
	}

	for _, w := range c.Workloads {
		files, _ := filepath.Glob(filepath.Join(*dir, w.Name+".parent.*.txt"))
		var seeds []int
		for _, f := range files {
			parts := strings.Split(filepath.Base(f), ".")
			if n, err := strconv.Atoi(parts[len(parts)-2]); err == nil {
				seeds = append(seeds, n)
			}
		}
		sort.Ints(seeds)
		if len(seeds) == 0 {
			continue
		}
		runs := map[string][]result{}
		var status []string
		for _, seed := range seeds {
			for _, side := range []string{"parent", "change"} {
				r, err := readResult(filepath.Join(*dir, fmt.Sprintf("%s.%s.%d.txt", w.Name, side, seed)))
				if err != nil {
					fmt.Fprintln(os.Stderr, "pairstat:", err)
					os.Exit(2)
				}
				runs[side] = append(runs[side], r)
				status = append(status, fmt.Sprintf("%d:%s failed=%d/%d correct=%t", seed, side, r.Failed, r.Attempted, r.Correct))
			}
		}
		fmt.Printf("\n%s (%d pairs)\n", w.Name, len(seeds))
		fmt.Printf("  %-14s %-38s %-38s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "change wins")
		for _, m := range c.EndToEnd {
			var p, ch []float64
			wins, losses := 0, 0
			for i := range seeds {
				a, b := runs["parent"][i].Metrics[m.Name].Value, runs["change"][i].Metrics[m.Name].Value
				p, ch = append(p, a), append(ch, b)
				switch {
				case a == b:
				case (b > a) == (m.Better == "higher"):
					wins++
				default:
					losses++
				}
			}
			cell := func(xs []float64) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
			}
			fmt.Printf("  %-14s %-38s %-38s %7.3f  %d of %d (%d lost), better=%s\n", m.Name, cell(p), cell(ch),
				quantile(ch, 0.5)/quantile(p, 0.5), wins, len(seeds), losses, m.Better)
		}
		fmt.Printf("  runs: %s\n", strings.Join(status, "; "))
	}
}
