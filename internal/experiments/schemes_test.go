package experiments

import (
	"math/rand"
	"testing"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// Every scheme of NewService runs one fetch path, so every one counts each
// sample it is asked for exactly once — a hit, a miss or a substitution —
// and serves one sample per request. Oracle reads nothing from the backend;
// NoCache reads every request from it.
func TestEverySchemeCountsEachRequestOnce(t *testing.T) {
	spec := dataset.Spec{Name: "schemes", NumSamples: 2000, MeanSampleBytes: 1000, Seed: 9}
	for _, scheme := range []Scheme{SchemeDefault, SchemeBase, SchemeQuiver, SchemeCoorDL, SchemeILFU,
		SchemeIIS, SchemeOracle, SchemeNoCache, SchemeNoCacheCIS, SchemeHC, SchemeICache} {
		svc, back, err := NewService(scheme, spec, storage.OrangeFS(), 0.2, 42)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sampling.NewTracker(spec.NumSamples, 3.0, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var (
			at        simclock.Time
			requested int64
		)
		for epoch := 0; epoch < 3; epoch++ {
			for _, batch := range svc.BeginEpoch(at, epoch, tr, rng).Batches(128) {
				var served []dataset.SampleID
				at, served = svc.FetchBatch(at, batch)
				if len(served) != len(batch) {
					t.Fatalf("%s: served %d of %d", scheme, len(served), len(batch))
				}
				for _, id := range batch {
					tr.Observe(id, rng.Float64())
				}
				requested += int64(len(batch))
			}
		}
		st := svc.Stats()
		if got := st.Hits + st.Misses + st.Substitutions; got != requested {
			t.Errorf("%s: hits+misses+subs = %d, want %d requested (%+v)", scheme, got, requested, st)
		}
		reads := back.Stats().SampleReads
		switch scheme {
		case SchemeOracle:
			if reads != 0 {
				t.Errorf("oracle read %d samples from the backend", reads)
			}
		case SchemeNoCache, SchemeNoCacheCIS:
			if reads != requested {
				t.Errorf("%s read %d samples from the backend for %d requests", scheme, reads, requested)
			}
		}
	}
}
