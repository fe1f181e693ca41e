package loadgen

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
)

// startServer spins a full serving stack on loopback and returns its
// address. Every backend read takes backendLatency (the source's fault
// injector charges it), and gate, when non-nil, is the admission gate,
// installed before the listener accepts.
func startServer(t testing.TB, spec dataset.Spec, backendLatency time.Duration, gate *overload.Gate) string {
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
	src, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	if backendLatency > 0 {
		src.Injector().Add(faults.DelayEvery(faults.OpSourceFetch, 1, backendLatency))
	}
	srv := rpc.NewServer(cacheSrv, src)
	srv.Logf = nil
	if gate != nil {
		srv.SetAdmission(gate)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                // no addr
		{Addr: "x"},                       // no keys
		{Addr: "x", Keys: 10},             // no duration and no request budget
		{Keys: 10, Duration: time.Second}, // no addr
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := Config{Addr: "x", Keys: 10, Duration: time.Second}
	got, err := good.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.Conns != 8 || got.Batch != 16 || got.Mix != "zipf" || got.ZipfS <= 1 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

func TestRunSmoke(t *testing.T) {
	spec := dataset.Spec{Name: "lgsmoke", NumSamples: 256, MeanSampleBytes: 512, Seed: 7}
	addr := startServer(t, spec, 0, nil)
	rep, err := Run(Config{
		Addr:     addr,
		Conns:    4,
		Batch:    8,
		Rate:     50000,
		Duration: 300 * time.Millisecond,
		Mix:      "zipf",
		Keys:     spec.NumSamples,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Samples == 0 {
		t.Fatalf("no traffic recorded: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors", rep.Errors)
	}
	if rep.Samples != rep.Requests*int64(rep.Batch) {
		t.Fatalf("samples %d != requests %d * batch %d", rep.Samples, rep.Requests, rep.Batch)
	}
	if rep.SamplesPerSec <= 0 || rep.LatencyP50Ms <= 0 || rep.LatencyMaxMs < rep.LatencyP99Ms {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestRunOverloadClassification drives a server whose only admission slot
// is held for the whole run: every request must come back as a shed
// (counted separately from transport errors), goodput must be zero, and the
// ledger must balance exactly — requests == successes + errors + shed +
// expired.
func TestRunOverloadClassification(t *testing.T) {
	spec := dataset.Spec{Name: "lgshed", NumSamples: 256, MeanSampleBytes: 512, Seed: 7}
	gate := overload.NewGate(overload.GateConfig{MaxInflight: 1})
	addr := startServer(t, spec, 0, gate)
	if ok, _ := gate.Admit(time.Now()); !ok {
		t.Fatal("could not occupy the admission slot")
	}
	defer gate.Done()

	rep, err := Run(Config{
		Addr:     addr,
		Conns:    2,
		Batch:    4,
		Rate:     20000,
		Duration: 250 * time.Millisecond,
		Mix:      "uniform",
		Keys:     spec.NumSamples,
		Seed:     1,
		Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatalf("no traffic recorded: %+v", rep)
	}
	if rep.Shed != rep.Requests {
		t.Fatalf("shed %d of %d requests; sheds must not leak into other buckets (%+v)",
			rep.Shed, rep.Requests, rep)
	}
	if rep.Errors != 0 || rep.Expired != 0 {
		t.Fatalf("sheds misclassified: errors=%d expired=%d", rep.Errors, rep.Expired)
	}
	if rep.Samples != 0 || rep.GoodputPerSec != 0 {
		t.Fatalf("a fully-shed run has no goodput: %+v", rep)
	}
}

// TestRunGoodputTracksDeadline: with no overload and a generous per-request
// deadline, every completion is on time — goodput equals raw throughput and
// the shed/expired buckets stay empty.
func TestRunGoodputTracksDeadline(t *testing.T) {
	spec := dataset.Spec{Name: "lggood", NumSamples: 256, MeanSampleBytes: 512, Seed: 7}
	addr := startServer(t, spec, 0, nil)
	rep, err := Run(Config{
		Addr:     addr,
		Conns:    2,
		Batch:    4,
		Rate:     20000,
		Duration: 250 * time.Millisecond,
		Mix:      "uniform",
		Keys:     spec.NumSamples,
		Seed:     1,
		Deadline: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 || rep.Shed != 0 || rep.Expired != 0 {
		t.Fatalf("clean run expected: %+v", rep)
	}
	if rep.GoodputPerSec != rep.SamplesPerSec {
		t.Fatalf("goodput %.1f != throughput %.1f with every completion on time",
			rep.GoodputPerSec, rep.SamplesPerSec)
	}
}

// TestMixDeterminism: uniform and zipf mixes replay identically for the
// same seed and connection index, and diverge across connections.
func TestMixDeterminism(t *testing.T) {
	for _, mix := range []string{"uniform", "zipf"} {
		cfg := Config{Mix: mix, Keys: 1024, Seed: 42, ZipfS: 1.2}
		start := time.Now()
		a := make([]dataset.SampleID, 256)
		b := make([]dataset.SampleID, 256)
		newMix(cfg, 3, start).fill(a)
		newMix(cfg, 3, start).fill(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed+conn diverged at %d", mix, i)
			}
		}
		newMix(cfg, 4, start).fill(b)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: different conns produced identical streams", mix)
		}
	}
}

// TestZipfSkew: the zipf mix concentrates traffic on low ranks — the top
// 10%% of the keyspace must absorb well over its uniform share.
func TestZipfSkew(t *testing.T) {
	cfg := Config{Mix: "zipf", Keys: 1000, ZipfS: 1.2, Seed: 9}
	m := newMix(cfg, 0, time.Now())
	ids := make([]dataset.SampleID, 4096)
	hot := 0
	for r := 0; r < 8; r++ {
		m.fill(ids)
		for _, id := range ids {
			if int(id) >= cfg.Keys {
				t.Fatalf("id %d outside keyspace", id)
			}
			if int(id) < cfg.Keys/10 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(8*len(ids))
	if frac < 0.4 {
		t.Fatalf("zipf top-decile share %.2f; expected heavy skew", frac)
	}
}

// TestDiurnalWindow: the diurnal mix confines ~90%% of a fill to a rotating
// hot window, so a burst of draws touches far fewer distinct keys than a
// uniform mix would.
func TestDiurnalWindow(t *testing.T) {
	cfg := Config{Mix: "diurnal", Keys: 4096, Seed: 5}
	m := newMix(cfg, 0, time.Now())
	ids := make([]dataset.SampleID, 1024)
	m.fill(ids)
	distinct := map[dataset.SampleID]bool{}
	for _, id := range ids {
		if int(id) >= cfg.Keys {
			t.Fatalf("id %d outside keyspace", id)
		}
		distinct[id] = true
	}
	// Uniform draws would land ~900 distinct keys; the windowed mix stays
	// near window size (256) plus the 10% background.
	if len(distinct) > 600 {
		t.Fatalf("diurnal fill touched %d distinct keys; window not hot", len(distinct))
	}
}

// TestOpenLoopChargesStall is the coordinated-omission check: against a
// server whose backend is far slower than the arrival interval, measured
// latency must grow with the backlog (latency from *scheduled* start),
// not sit at the service time the way a closed loop would report.
func TestOpenLoopChargesStall(t *testing.T) {
	spec := dataset.Spec{Name: "lgstall", NumSamples: 4096, MeanSampleBytes: 256, Seed: 7}
	const service = 50 * time.Millisecond
	addr := startServer(t, spec, service, nil)
	rep, err := Run(Config{
		Addr:     addr,
		Conns:    1,
		Batch:    1,
		Rate:     200, // 5ms arrival interval vs 50ms service time
		Duration: 400 * time.Millisecond,
		Mix:      "uniform", // distinct cold keys: every request pays the backend
		Keys:     spec.NumSamples,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Behind == 0 {
		t.Fatalf("no requests flagged behind schedule: %+v", rep)
	}
	if rep.LatencyMaxMs < 3*float64(service/time.Millisecond) {
		t.Fatalf("max latency %.1fms does not charge the backlog (service %.0fms): %+v",
			rep.LatencyMaxMs, float64(service/time.Millisecond), rep)
	}
}
