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

// BenchmarkPrefetchEpochs is the clairvoyant-prefetch gate (`make
// prefetch-smoke` runs it once, so `make all` does). Two
// identical servers take the same epoch-boundary workload — per-epoch
// reshuffled selections over a keyspace larger than the cache, backend
// charging real latency per read — one client crossing plain boundaries (no
// prefetch at all), one pushing the schedule ahead of its accesses
// (BeginEpochPlan). The first epoch is a cold baseline on both; from the
// second epoch on the plan should pre-place nearly the whole selection, so the
// benchmark FAILS unless warm-epoch cold misses drop >= 10x versus the plain
// run and the prefetch in-time ratio reaches 0.9. The pool is the shipped one,
// a worker per read slot (EXPERIMENTS.md, "One prefetcher", has the 20-run
// table the in-time bound rests on). The headline samples/sec is the
// clairvoyant run's throughput at the shared offered rate — a plan that stops
// working ahead stalls the paced schedule and drags it down.
func BenchmarkPrefetchEpochs(b *testing.B) {
	const (
		keys         = 2048
		epochSamples = 768
		epochCount   = 5
		backendLat   = 300 * time.Microsecond
		offeredRate  = 20000
	)
	spec := dataset.Spec{Name: "loadgen-plan", NumSamples: keys, MeanSampleBytes: 4096, Seed: 7}
	runMode := func(clairvoyant bool) (Report, rpc.PlanStats, int64, float64) {
		srv, addr := startPlanServer(b, spec, backendLat)
		rep, err := Run(Config{
			Addr:         addr,
			Conns:        8,
			Batch:        16,
			Rate:         offeredRate,
			Keys:         keys,
			Seed:         3,
			EpochSamples: epochSamples,
			Epochs:       epochCount,
			Clairvoyant:  clairvoyant,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d request errors (clairvoyant=%v)", rep.Errors, clairvoyant)
		}
		d := srv.DecisionStats()
		if got := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; got != d.PrefetchIssued {
			b.Fatalf("prefetch ledger unbalanced (clairvoyant=%v): in_time %d + late %d + wasted %d + dropped %d != issued %d",
				clairvoyant, d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, d.PrefetchIssued)
		}
		var warm int64
		for _, m := range rep.EpochMisses[1:] {
			warm += m
		}
		var inTime float64
		if denom := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted; denom > 0 {
			inTime = float64(d.PrefetchInTime) / float64(denom)
		}
		return rep, srv.PlanStats(), warm, inTime
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, plainWarm, _ := runMode(false)
		rep, ps, clairWarm, inTime := runMode(true)
		if plainWarm == 0 {
			b.Fatalf("plain warm epochs saw no cold misses — the workload churn vanished")
		}
		if clairWarm*10 > plainWarm {
			b.Fatalf("warm-epoch cold misses only dropped %dx (plain %d, clairvoyant %d); want >= 10x",
				plainWarm/max64(clairWarm, 1), plainWarm, clairWarm)
		}
		if inTime < 0.9 {
			b.Fatalf("prefetch in-time ratio %.3f < 0.9 (plan %+v)", inTime, ps)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.SamplesPerSec, "samples/sec")
			b.ReportMetric(float64(clairWarm), "cold-misses")
			b.ReportMetric(inTime, "in-time-ratio")
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// startPlanServer boots a serving stack for the epoch-boundary benchmark:
// all-H policy (L-cache off), capacity above one epoch's selection but below
// the keyspace, latency-charging backend. A plan runs as an operator's server
// runs it: no pacing but the read budget, one prefetch worker per slot.
func startPlanServer(b *testing.B, spec dataset.Spec, backendLat time.Duration) (*rpc.Server, string) {
	b.Helper()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		b.Fatal(err)
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() * 3 / 4)
	cfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		b.Fatal(err)
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		b.Fatal(err)
	}
	srv := rpc.NewServer(cacheSrv, &stallSource{inner: inner, latency: backendLat})
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
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
