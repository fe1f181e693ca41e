package obs

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestPromGolden renders a deterministic document — counters, gauges, and
// a histogram with known contents — and compares it byte-for-byte against
// the checked-in golden file. Run with -update to regenerate.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Metric("icache_test_hits_total", "requests served from cached copies", "counter", 42)
	p.Metric("icache_test_depth", "current queue depth", "gauge", 3)
	p.Metric("icache_test_escapes_total", "help with\nnewline and \\ backslash", "counter", 1)
	h := NewHistogram()
	for _, d := range []time.Duration{
		time.Microsecond, 2 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond,
	} {
		h.Record(d)
	}
	p.Histogram("icache_test_stage_seconds", "per-stage latency", h.Snapshot())
	reg := NewRegistry()
	reg.Hist("beta").Record(time.Millisecond)
	reg.Hist("alpha").Record(time.Microsecond)
	p.Registry("icache_stage", reg)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// A second render must be byte-identical: the exposition is stable.
	var again bytes.Buffer
	p2 := NewPromWriter(&again)
	p2.Metric("icache_test_hits_total", "requests served from cached copies", "counter", 42)
	if !bytes.HasPrefix(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-render of the first family differs")
	}
}

// TestPromWellFormed validates the structural rules of the text format on
// a rendered histogram: every TYPE'd family, cumulative monotone buckets,
// a final +Inf bucket equal to _count.
func TestPromWellFormed(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("x_seconds", "h", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	var bucketVals []uint64
	var count uint64
	var sawInf, sawSum, sawCount bool
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "x_seconds_bucket{le=\"+Inf\"}"):
			sawInf = true
			v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			bucketVals = append(bucketVals, v)
		case strings.HasPrefix(line, "x_seconds_bucket"):
			v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			bucketVals = append(bucketVals, v)
		case strings.HasPrefix(line, "x_seconds_sum"):
			sawSum = true
		case strings.HasPrefix(line, "x_seconds_count"):
			sawCount = true
			v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	if !sawInf || !sawSum || !sawCount {
		t.Fatalf("missing histogram lines: inf=%v sum=%v count=%v", sawInf, sawSum, sawCount)
	}
	if len(bucketVals) != NumBuckets+1 {
		t.Fatalf("%d bucket lines, want %d", len(bucketVals), NumBuckets+1)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, bucketVals)
		}
	}
	if bucketVals[len(bucketVals)-1] != count {
		t.Fatalf("+Inf bucket %d != count %d", bucketVals[len(bucketVals)-1], count)
	}
}
