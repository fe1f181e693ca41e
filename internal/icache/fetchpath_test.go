package icache

import (
	"testing"

	"icache/internal/cache"
	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
)

// TestFetchPathsChargeTheModelThroughTheReader drives every fetch path that
// reads storage: with the virtual-time reader in place the model serves
// exactly the misses (a sample read each, a chunk read each under static
// packaging), and once SetPackageReader drops the reader nothing at all is
// charged on the model, as on a shipped node.
func TestFetchPathsChargeTheModelThroughTheReader(t *testing.T) {
	sampleReads := func(st storage.Stats) int64 { return st.SampleReads }
	engine := func(tune func(*Config)) func(*storage.Backend) (*Server, error) {
		return func(back *storage.Backend) (*Server, error) {
			cfg := DefaultConfig(back.Spec().TotalBytes() / 5)
			tune(&cfg)
			return NewServer(back, cfg, sampling.DefaultIIS(), 42)
		}
	}
	cases := []struct {
		name  string
		build func(*storage.Backend) (*Server, error)
		hot   bool                      // route the requests as H-samples
		reads func(storage.Stats) int64 // the model's demand reads
	}{
		{"baseline", func(back *storage.Backend) (*Server, error) {
			return NewBaselineServer(back, Baseline{Name: "lru", Policy: cache.NewLRU(back.Spec().TotalBytes() / 5)}), nil
		}, false, sampleReads},
		{"H-miss", engine(func(*Config) {}), true, sampleReads},
		{"L-miss, L-cache off", engine(func(c *Config) { c.EnableLCache = false }), false, sampleReads},
		{"dynamic L-miss", engine(func(c *Config) { c.Substitute = SubstituteNone }), false, sampleReads},
		{"static-chunk miss", engine(func(c *Config) { c.Packaging = PackagingStatic }),
			false, func(st storage.Stats) int64 { return st.PackageReads }},
	}
	ids := make([]dataset.SampleID, 1024)
	items := make([]sampling.Item, len(ids))
	for i := range ids {
		ids[i] = dataset.SampleID(i * 13 % testSpec().NumSamples)
		items[i] = sampling.Item{ID: ids[i], IV: 1}
	}
	for _, tc := range cases {
		for _, shipped := range []bool{false, true} {
			name := tc.name + "/virtual-time reader"
			if shipped {
				name = tc.name + "/package reader"
			}
			t.Run(name, func(t *testing.T) {
				back := testBackend(t)
				srv, err := tc.build(back)
				if err != nil {
					t.Fatal(err)
				}
				if tc.hot {
					srv.InstallHList(sampling.NewHList(items))
				}
				if shipped {
					srv.SetPackageReader(func(pkg []dataset.SampleID) {
						for _, id := range pkg {
							srv.DeliverMember(id)
						}
						srv.EndPackage()
					})
				}
				var at simclock.Time
				for b := 0; b < len(ids); b += 64 {
					at, _ = srv.FetchBatch(at, ids[b:b+64])
				}
				misses := srv.Stats().Misses
				if misses == 0 {
					t.Fatal("no request missed")
				}
				if shipped {
					if st := back.Stats(); st != (storage.Stats{}) {
						t.Fatalf("the model was charged behind a package reader: %+v (%d misses)", st, misses)
					}
				} else if got := tc.reads(back.Stats()); got != misses {
					t.Fatalf("the model served %d demand reads for %d misses", got, misses)
				}
			})
		}
	}
}
