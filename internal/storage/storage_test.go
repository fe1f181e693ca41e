package storage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icache/internal/dataset"
	"icache/internal/faults"
	"icache/internal/simclock"
	"icache/internal/vt"
)

func testSpec() dataset.Spec {
	return dataset.Spec{Name: "t", NumSamples: 1000, MeanSampleBytes: 4096, Seed: 1}
}

func mustBackend(t *testing.T, spec dataset.Spec, cfg Config) *Backend {
	t.Helper()
	b, err := NewBackend(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{OrangeFS(), NFS(), Tmpfs()} {
		if err := c.Validate(); err != nil {
			t.Errorf("builtin config invalid: %v", err)
		}
	}
	bad := OrangeFS()
	bad.Servers = 0
	if err := bad.Validate(); err == nil {
		t.Error("Servers=0 validated")
	}
	bad = OrangeFS()
	bad.LinkBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("LinkBandwidth=0 validated")
	}
}

func TestNewBackendRejectsBadInput(t *testing.T) {
	if _, err := NewBackend(dataset.Spec{}, OrangeFS()); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := NewBackend(testSpec(), Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestReadSampleCostIncludesOverheadAndTransfer(t *testing.T) {
	cfg := Config{Servers: 1, StripeBytes: 64 << 10, PerReadOverhead: time.Millisecond,
		ServerBandwidth: 1e6, LinkBandwidth: 1e6, ServerParallelism: 1}
	b := mustBackend(t, testSpec(), cfg)
	end := b.ReadSample(0, 0)
	// 1ms overhead + 4096B at 1MB/s server + 4096B at 1MB/s link ≈ 1ms + 2×4.096ms
	want := time.Millisecond + 2*4096*time.Microsecond
	if diff := end - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("completion = %v, want ≈ %v", end, want)
	}
}

func TestSequentialReadsQueue(t *testing.T) {
	b := mustBackend(t, testSpec(), Config{Servers: 1, StripeBytes: 64 << 10,
		PerReadOverhead: time.Millisecond, ServerBandwidth: 1e9, LinkBandwidth: 1e9, ServerParallelism: 1})
	e1 := b.ReadSample(0, 0)
	e2 := b.ReadSample(0, 1) // same instant: must wait behind the first
	if e2 <= e1 {
		t.Fatalf("second concurrent read finished at %v, not after first at %v", e2, e1)
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	// With 4 servers, 4 concurrent single-stripe reads of consecutive IDs
	// land on distinct servers and finish at nearly the same time.
	cfg := Config{Servers: 4, StripeBytes: 64 << 10, PerReadOverhead: time.Millisecond,
		ServerBandwidth: 1e9, LinkBandwidth: 1e12, ServerParallelism: 1}
	b := mustBackend(t, testSpec(), cfg)
	var ends []simclock.Time
	for id := 0; id < 4; id++ {
		ends = append(ends, b.ReadSample(0, dataset.SampleID(id)))
	}
	for _, e := range ends {
		if e > 2*time.Millisecond {
			t.Fatalf("parallel reads serialized: end=%v", e)
		}
	}
}

func TestPackageReadBeatsRandomReads(t *testing.T) {
	// The whole point of dynamic packaging: one big sequential read must be
	// much cheaper than reading the same bytes as small random I/Os.
	spec := testSpec()
	cfg := OrangeFS()
	const n = 256 // samples per package
	pkgBytes := n * spec.MeanSampleBytes

	random := mustBackend(t, spec, cfg)
	var at simclock.Time
	for id := 0; id < n; id++ {
		at = random.ReadSample(at, dataset.SampleID(id))
	}

	pkg := mustBackend(t, spec, cfg)
	pkgEnd := pkg.ReadPackage(0, pkgBytes)

	if pkgEnd*10 > at {
		t.Fatalf("package read %v not ≥10× faster than %v of random reads", pkgEnd, at)
	}
}

func TestReadPackageZeroBytesFree(t *testing.T) {
	b := mustBackend(t, testSpec(), OrangeFS())
	if end := b.ReadPackage(5*time.Millisecond, 0); end != 5*time.Millisecond {
		t.Fatalf("zero-byte package took time: %v", end)
	}
	if b.Stats().PackageReads != 0 {
		t.Fatal("zero-byte package counted")
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	b := mustBackend(t, testSpec(), OrangeFS())
	b.ReadSample(0, 1)
	b.ReadPackage(0, 1<<20)
	s := b.Stats()
	if s.SampleReads != 1 || s.PackageReads != 1 {
		t.Fatalf("stats = %+v, want 1 sample + 1 package", s)
	}
	if s.BytesRead != int64(testSpec().MeanSampleBytes)+1<<20 {
		t.Fatalf("BytesRead = %d", s.BytesRead)
	}
	b.ResetStats()
	if b.Stats() != (Stats{}) {
		t.Fatal("ResetStats left residue")
	}
	busy := b.link.BusyUntil()
	if busy == 0 {
		t.Fatal("link should still be busy after ResetStats")
	}
	b.Reset()
	if b.link.BusyUntil() != 0 {
		t.Fatal("Reset did not idle the link")
	}
}

func TestTmpfsMuchFasterThanOrangeFS(t *testing.T) {
	spec := testSpec()
	remote := mustBackend(t, spec, OrangeFS())
	local := mustBackend(t, spec, Tmpfs())
	var rEnd, lEnd simclock.Time
	for id := 0; id < 100; id++ {
		rEnd = remote.ReadSample(rEnd, dataset.SampleID(id))
		lEnd = local.ReadSample(lEnd, dataset.SampleID(id))
	}
	if lEnd*50 > rEnd {
		t.Fatalf("tmpfs (%v) not ≥50× faster than OrangeFS (%v)", lEnd, rEnd)
	}
}

func TestLargeSampleStripes(t *testing.T) {
	// A 1 MB sample on 4 servers should beat the single-server transfer time.
	spec := dataset.Spec{Name: "big", NumSamples: 10, MeanSampleBytes: 1 << 20, Seed: 3}
	multi := mustBackend(t, spec, Config{Servers: 4, StripeBytes: 64 << 10,
		PerReadOverhead: 0, ServerBandwidth: 1e8, LinkBandwidth: 1e12, ServerParallelism: 1})
	single := mustBackend(t, spec, Config{Servers: 1, StripeBytes: 64 << 10,
		PerReadOverhead: 0, ServerBandwidth: 1e8, LinkBandwidth: 1e12, ServerParallelism: 1})
	if m, s := multi.ReadSample(0, 0), single.ReadSample(0, 0); m*2 > s {
		t.Fatalf("striped large read %v not ≥2× faster than single-server %v", m, s)
	}
}

// Property: completion is never before arrival and cost is monotone in size.
func TestReadMonotonicityProperty(t *testing.T) {
	cfg := OrangeFS()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := testSpec()
		b, err := NewBackend(spec, cfg)
		if err != nil {
			return false
		}
		var at simclock.Time
		for i := 0; i < 100; i++ {
			at += time.Duration(rng.Intn(100)) * time.Microsecond
			end := b.ReadSample(at, dataset.SampleID(rng.Intn(spec.NumSamples)))
			if end < at {
				return false
			}
		}
		// Bigger packages take at least as long from a fresh backend.
		b1, _ := NewBackend(spec, cfg)
		b2, _ := NewBackend(spec, cfg)
		small := b1.ReadPackage(0, 1<<20)
		big := b2.ReadPackage(0, 4<<20)
		return big >= small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDataSourceFetch(t *testing.T) {
	src, err := NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := src.Fetch(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Spec().VerifyPayload(7, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Fetch(-1); err == nil {
		t.Error("out-of-range fetch succeeded")
	}
	if src.Reads() != 1 {
		t.Errorf("Reads = %d, want 1 (out-of-range fetches are not served)", src.Reads())
	}
}

func TestDataSourceFailureInjection(t *testing.T) {
	src, _ := NewDataSource(testSpec())
	boom := errors.New("disk on fire")
	src.Injector().Add(faults.FailN(faults.OpSourceFetch, 2, boom))
	for i := 0; i < 2; i++ {
		if _, err := src.Fetch(0); !errors.Is(err, boom) {
			t.Fatalf("fetch %d: err = %v, want injected", i, err)
		}
	}
	if _, err := src.Fetch(0); err != nil {
		t.Fatalf("fetch after injections exhausted: %v", err)
	}
}

// TestDataSourceDelayRule: a DelayEvery rule on OpSourceFetch is how a test
// makes the backend slow. In a bubble each Fetch takes exactly the rule's
// delay of virtual time, serves the sample's bytes, and is counted once in
// Reads and once in the injector's calls.
func TestDataSourceDelayRule(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		spec := testSpec()
		src, err := NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		const d = 3 * time.Millisecond
		src.Injector().Add(faults.DelayEvery(faults.OpSourceFetch, 1, d))
		for i := 1; i <= 3; i++ {
			t0 := time.Now()
			got, err := src.Fetch(dataset.SampleID(i))
			if el := time.Since(t0); el != d {
				t.Fatalf("fetch %d took %v of virtual time, want %v", i, el, d)
			}
			if err != nil || spec.VerifyPayload(dataset.SampleID(i), got) != nil {
				t.Fatalf("fetch %d behind a delay: %v", i, err)
			}
			if r, c := src.Reads(), src.Injector().Calls(faults.OpSourceFetch); r != int64(i) || c != int64(i) {
				t.Fatalf("after %d fetches: Reads %d, injector calls %d", i, r, c)
			}
		}
	})
}

// TestDataSourceConcurrentFailureInjection hammers Fetch from many
// goroutines while a FailN rule is re-armed concurrently — the scenario of the
// async L-cache loader fetching while a test injects failures. Run under
// -race this guards the injector migration; functionally it checks that
// every call either serves a valid payload or the injected error.
func TestDataSourceConcurrentFailureInjection(t *testing.T) {
	src, err := NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			src.Injector().Add(faults.FailN(faults.OpSourceFetch, 1, boom))
		}
	}()
	var wg sync.WaitGroup
	errs := make([]int64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				payload, err := src.Fetch(dataset.SampleID(i % 100))
				switch {
				case err == nil:
					if len(payload) == 0 {
						t.Errorf("worker %d: empty payload without error", w)
						return
					}
				case errors.Is(err, boom):
					errs[w]++
				default:
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	var total int64
	for _, n := range errs {
		total += n
	}
	if total == 0 {
		t.Error("no injected failure was observed despite 200 armed")
	}
	if total > 200 {
		t.Errorf("%d injected failures observed, only 200 armed", total)
	}
}
