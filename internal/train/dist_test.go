package train

import (
	"reflect"
	"testing"

	"icache/internal/cache"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func distBackend(t *testing.T) *storage.Backend {
	t.Helper()
	back, err := storage.NewBackend(smallSpec(), storage.NFS())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestDistDefaultRuns(t *testing.T) {
	back := distBackend(t)
	svc := icache.NewDistDefault(back, 2, back.Spec().TotalBytes()/5)
	cfg := smallConfig(ResNet18, 2)
	job, err := NewDistJob(cfg, svc)
	if err != nil {
		t.Fatal(err)
	}
	rs := job.Run()
	if len(rs.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(rs.Epochs))
	}
	for _, e := range rs.Epochs {
		if e.SamplesFetched != smallSpec().NumSamples {
			t.Fatalf("fetched %d, want full dataset", e.SamplesFetched)
		}
		if e.Duration <= 0 || e.IOStall < 0 {
			t.Fatalf("bad epoch stats: %+v", e)
		}
	}
}

func TestDistICacheBeatsDistDefault(t *testing.T) {
	// The paper's §V-G claim in miniature: distributed iCache over a shared
	// NFS backend clearly outruns uncoordinated per-node LRUs.
	run := func(mk func(*storage.Backend) DistService) float64 {
		back := distBackend(t)
		cfg := smallConfig(ResNet18, 5)
		job, err := NewDistJob(cfg, mk(back))
		if err != nil {
			t.Fatal(err)
		}
		rs := job.Run()
		steady := rs
		steady.Epochs = rs.Epochs[2:]
		return float64(steady.AvgEpochTime())
	}
	defTime := run(func(b *storage.Backend) DistService {
		return icache.NewDistDefault(b, 2, b.Spec().TotalBytes()/5)
	})
	icTime := run(func(b *storage.Backend) DistService {
		cl, err := icache.NewCluster(b, icache.DefaultClusterConfig(2, b.Spec().TotalBytes()/5), sampling.DefaultIIS(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	})
	if icTime >= defTime {
		t.Fatalf("distributed iCache (%v) not faster than distributed Default (%v)", icTime, defTime)
	}
}

func TestDistMoreNodesFaster(t *testing.T) {
	run := func(nodes int) float64 {
		back := distBackend(t)
		cl, err := icache.NewCluster(back, icache.DefaultClusterConfig(nodes, back.Spec().TotalBytes()/5), sampling.DefaultIIS(), 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(ResNet18, 4)
		job, err := NewDistJob(cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		rs := job.Run()
		steady := rs
		steady.Epochs = rs.Epochs[2:]
		return float64(steady.AvgEpochTime())
	}
	if t2, t4 := run(2), run(4); t4 >= t2 {
		t.Fatalf("4 nodes (%v) not faster than 2 (%v)", t4, t2)
	}
}

func TestNewDistJobValidates(t *testing.T) {
	back := distBackend(t)
	bad := smallConfig(ResNet18, 1)
	bad.BatchSize = 0
	for name, tc := range map[string]struct {
		cfg Config
		svc DistService
	}{
		"config":   {bad, icache.NewDistDefault(back, 2, 1<<20)},
		"no nodes": {smallConfig(ResNet18, 1), icache.NewDistDefault(back, 0, 1<<20)},
	} {
		if _, err := NewDistJob(tc.cfg, tc.svc); err == nil {
			t.Errorf("%s: invalid job accepted", name)
		}
	}
}

// A one-node cluster is a single job: the same spec, seed and config give the
// same epochs, accuracy included, whichever constructor built the job.
func TestOneNodeDistJobIsAJob(t *testing.T) {
	cfg := smallConfig(ResNet18, 3)
	capacity := smallSpec().TotalBytes() / 5
	single, err := NewJob(cfg, icache.NewBaselineServer(distBackend(t), icache.Baseline{Name: "default", Policy: cache.NewLRU(capacity)}))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistJob(cfg, icache.NewDistDefault(distBackend(t), 1, capacity))
	if err != nil {
		t.Fatal(err)
	}
	want, got := single.Run().Epochs, dist.Run().Epochs
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-node dist job differs from a single job:\n got  %+v\n want %+v", got, want)
	}
}
