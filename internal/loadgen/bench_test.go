package loadgen

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// BenchmarkLoadgen measures the serving hot path (`make bench-layers`): eight
// open-loop connections storm a 64-sample hot set that is fully resident,
// so every request is a pure cache hit and the measured ceiling is the
// serving path itself — framing, copies, allocations, syscalls — not the
// backend. One benchmark iteration is one GetBatch of 16 samples; the
// headline metric is samples/sec at saturation.
func BenchmarkLoadgen(b *testing.B) {
	const (
		hotSet = 64
		batch  = 16
		conns  = 8
	)
	spec := dataset.Spec{Name: "loadgen", NumSamples: 4096, MeanSampleBytes: 16384, Seed: 7}
	addr := startServer(b, 0, spec)

	// Warm: raise the hot set's importance and fetch it once so the whole
	// set is resident before the measured storm.
	items := make([]sampling.Item, 0, hotSet)
	hot := make([]dataset.SampleID, 0, hotSet)
	for id := dataset.SampleID(0); id < hotSet; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		hot = append(hot, id)
	}
	c, err := rpc.Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.UpdateImportance(items); err != nil {
		b.Fatal(err)
	}
	if _, err := c.GetBatch(hot); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	rep, err := Run(Config{
		Addr:        addr,
		Conns:       conns,
		Batch:       batch,
		Rate:        0, // saturation
		MaxRequests: int64(b.N),
		Mix:         "uniform",
		Keys:        hotSet,
		Seed:        11,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors > 0 {
		b.Fatalf("%d request errors", rep.Errors)
	}
	if rep.ElapsedSeconds > 0 {
		b.ReportMetric(rep.SamplesPerSec, "samples/sec")
		b.ReportMetric(rep.LatencyP99Ms, "p99-ms")
	}
}

// BenchmarkLoadgenOverload is the overload-control gate (`make
// bench-layers`). The server models the
// I/O-bound regime the admission gate exists for: a backend that charges
// real latency per miss, with fewer admission slots than client connections
// so the gate — not the wire — is the binding resource. The run walks the
// goodput curve: a closed-loop probe estimates saturation, a paced run at
// 1x that rate measures capacity (goodput at the knee), and the measured
// storm offers 2x. A healthy gate answers the excess with cheap retry-after
// rejections, so the slots stay saturated, served completions stay inside
// the deadline, and goodput holds at the knee; a collapsing server instead
// queues, blows the deadline, and goodput falls off the cliff. The headline
// "samples/sec" metric is the storm's GOODPUT — on-time completions only.
// The benchmark itself fails on the two collapse
// signatures: storm goodput under 80% of capacity, or a conservation leak
// (requests not exactly accounted for by successes + errors + sheds +
// expirations).
func BenchmarkLoadgenOverload(b *testing.B) {
	const (
		batch      = 16
		conns      = 32
		slots      = 16 // admission gate inflight cap: half the connections
		backendLat = 2 * time.Millisecond
		deadline   = 300 * time.Millisecond
	)
	// Keyspace far larger than the cache: nearly every sample pays the
	// backend, so per-request service time is flat and slot-bound rather
	// than drifting with the hit ratio between phases.
	spec := dataset.Spec{Name: "loadgen-ovl", NumSamples: 65536, MeanSampleBytes: 1024, Seed: 7}
	gate := overload.NewGate(overload.GateConfig{MaxInflight: slots})
	addr := startOverloadServer(b, spec, backendLat, gate)

	// Unrecorded warm pass, then a closed-loop saturation probe to place
	// the knee of the goodput curve.
	if _, err := Run(Config{
		Addr: addr, Conns: conns, Batch: batch, Rate: 0,
		Duration: 300 * time.Millisecond, Mix: "uniform", Keys: spec.NumSamples, Seed: 9,
	}); err != nil {
		b.Fatal(err)
	}
	probe, err := Run(Config{
		Addr: addr, Conns: conns, Batch: batch, Rate: 0,
		Duration: 400 * time.Millisecond, Mix: "uniform", Keys: spec.NumSamples, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	est := probe.SamplesPerSec
	if est <= 0 {
		b.Fatalf("saturation probe produced no throughput: %+v", probe)
	}

	// Capacity: goodput with the estimated saturation rate offered. This is
	// the number the storm must hold — same pacing, same deadline, so the
	// comparison isolates what 2x load does and nothing else.
	capRun, err := Run(Config{
		Addr: addr, Conns: conns, Batch: batch, Rate: est,
		Duration: 800 * time.Millisecond, Mix: "uniform", Keys: spec.NumSamples, Seed: 12,
		Deadline: deadline,
	})
	if err != nil {
		b.Fatal(err)
	}
	capacity := capRun.GoodputPerSec
	if capacity <= 0 {
		b.Fatalf("capacity run produced no goodput: %+v", capRun)
	}

	b.ResetTimer()
	rep, err := Run(Config{
		Addr:        addr,
		Conns:       conns,
		Batch:       batch,
		Rate:        2 * est,
		MaxRequests: int64(b.N),
		Mix:         "uniform",
		Keys:        spec.NumSamples,
		Seed:        13,
		Deadline:    deadline,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors > 0 {
		b.Fatalf("%d transport errors during the storm (sheds/expirations are separate buckets): %+v",
			rep.Errors, rep)
	}
	successes := rep.Samples / int64(rep.Batch)
	if rep.Requests != successes+rep.Errors+rep.Shed+rep.Expired {
		b.Fatalf("conservation leak: requests %d != successes %d + errors %d + shed %d + expired %d",
			rep.Requests, successes, rep.Errors, rep.Shed, rep.Expired)
	}
	// The goodput floor only means something once the storm has run long
	// enough to reach steady state; the opening b.N ramp-up runs are too
	// short to judge.
	if rep.Requests >= 512 && rep.GoodputPerSec < 0.8*capacity {
		b.Fatalf("queue collapse: goodput %.0f samples/sec under 80%% of capacity %.0f (%+v)",
			rep.GoodputPerSec, capacity, rep)
	}
	if rep.ElapsedSeconds > 0 {
		b.ReportMetric(rep.GoodputPerSec, "samples/sec")
		b.ReportMetric(rep.LatencyP99Ms, "p99-ms")
	}
}

// startOverloadServer is startGatedServer with a stalled backend: every
// miss charges backendLat, making the admission slots — not the loopback
// wire — the capacity-limiting resource.
func startOverloadServer(t testing.TB, spec dataset.Spec, backendLat time.Duration, gate *overload.Gate) string {
	t.Helper()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() / 4)
	cfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(cacheSrv, &stallSource{inner: inner, latency: backendLat})
	srv.Logf = nil
	srv.SetAdmission(gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}
