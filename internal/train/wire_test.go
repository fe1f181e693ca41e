package train_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/icache"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/train"
)

// TestLearnerOnTheWire trains two IIS epochs through RunWireEpoch against a
// loopback cache server over two connections, the way icache-train does:
// one with a planned boundary, one with a plain one. It holds the epoch's
// books against the server's: every counter the epoch reports is the
// growth of the server's Stats over it, every substitution the learner
// counts is one the server counted, every scheduled sample is trained once,
// the accuracy model reports a Top-1 the model can reach, and only the
// planned boundary prefetches.
func TestLearnerOnTheWire(t *testing.T) {
	spec := dataset.Spec{Name: "wire", NumSamples: 4000, MeanSampleBytes: 3073, Seed: 7}
	backend, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(backend, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(cacheSrv, source)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conns := make([]*rpc.Client, 2)
	for i := range conns {
		if conns[i], err = rpc.Dial(ln.Addr().String(), time.Second); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}

	learner, err := train.NewLearner(train.DefaultConfig(train.ResNet18, spec), train.SubSourceLCache)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prev, err := conns[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	for epoch, plan := range []bool{true, false} {
		issued := srv.DecisionStats().PrefetchIssued
		ep, err := train.RunWireEpoch(learner, rng, conns, epoch, 256, plan)
		if err != nil {
			t.Fatal(err)
		}
		st, err := conns[0].Stats()
		if err != nil {
			t.Fatal(err)
		}
		want := rpc.Stats{
			Hits:          st.Hits - prev.Hits,
			Misses:        st.Misses - prev.Misses,
			Substitutions: st.Substitutions - prev.Substitutions,
			HCacheLen:     st.HCacheLen,
			LCacheLen:     st.LCacheLen,
			Packages:      st.Packages - prev.Packages,
			DemandFetches: st.DemandFetches - prev.DemandFetches,
		}
		if ep.Server != want {
			t.Errorf("epoch %d: reported server counters %+v, want the growth of Stats %+v", epoch, ep.Server, want)
		}
		prev = st
		if ep.Planned != plan {
			t.Errorf("epoch %d: planned %v, want %v", epoch, ep.Planned, plan)
		}
		if got := srv.DecisionStats().PrefetchIssued - issued; plan != (got > 0) {
			t.Errorf("epoch %d (planned %v): %d prefetches issued; want some only behind a planned boundary", epoch, plan, got)
		}
		if got := int64(ep.Substituted); got != ep.Server.Substitutions {
			t.Errorf("epoch %d: learner counted %d substitutions, server %d", epoch, got, ep.Server.Substitutions)
		}
		if served := ep.Server.Hits + ep.Server.Misses + ep.Server.Substitutions; ep.Trained != learner.Trained() || int64(ep.Trained) != served || ep.Bytes <= 0 {
			t.Errorf("epoch %d: trained %d (learner %d), server served %d, %d bytes; want all equal and bytes > 0", epoch, ep.Trained, learner.Trained(), served, ep.Bytes)
		}
		if ep.Top1 <= 0 || ep.Top1 > train.ResNet18.BaseTop1 || ep.Top5 < ep.Top1 {
			t.Errorf("epoch %d: Top-1 %.2f (Top-5 %.2f), want Top-1 in (0, %g] and Top-5 >= Top-1", epoch, ep.Top1, ep.Top5, train.ResNet18.BaseTop1)
		}
		t.Logf("epoch %d (planned %v): %d trained, %d substituted, %d cold misses, Top-1 %.2f", epoch, plan, ep.Trained, ep.Substituted, ep.Server.DemandFetches, ep.Top1)
	}
}
