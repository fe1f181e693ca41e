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

// TestLearnerOnTheWire trains two IIS epochs through the learner against a
// loopback cache server, the way icache-train does, and holds the learner's
// books against the server's: every substitution the client counts is one
// the server counted, every fetched sample is trained once, and the
// accuracy model reports a Top-1 the model can reach.
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
	client, err := rpc.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	learner, err := train.NewLearner(train.DefaultConfig(train.ResNet18, spec), train.SubSourceLCache)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prev, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		learner.BeginEpoch(epoch)
		sched, hlist := sampling.IISSchedule(learner.Tracker(), sampling.DefaultIIS(), rng)
		if err := client.UpdateImportance(hlist.Items); err != nil {
			t.Fatal(err)
		}
		if err := client.BeginEpochPlan(epoch, sched.Fetch); err != nil {
			t.Fatal(err)
		}
		fetched := 0
		for _, batch := range sched.Batches(256) {
			samples, err := client.GetBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for k, s := range samples {
				learner.Train(batch[k], s.ID, true)
			}
			fetched += len(samples)
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(learner.Substitutions()), st.Substitutions-prev.Substitutions; got != want {
			t.Errorf("epoch %d: learner counted %d substitutions, server %d", epoch, got, want)
		}
		prev = st
		if trained := learner.Trained(); fetched != len(sched.Fetch) || trained != fetched {
			t.Errorf("epoch %d: scheduled %d, fetched %d, trained %d; want all equal", epoch, len(sched.Fetch), fetched, trained)
		}
		top1, top5 := learner.EndEpoch(sched.Fetch, 0)
		if top1 <= 0 || top1 > train.ResNet18.BaseTop1 || top5 < top1 {
			t.Errorf("epoch %d: Top-1 %.2f (Top-5 %.2f), want Top-1 in (0, %g] and Top-5 >= Top-1", epoch, top1, top5, train.ResNet18.BaseTop1)
		}
		t.Logf("epoch %d: %d trained, %d substituted, Top-1 %.2f", epoch, learner.Trained(), learner.Substitutions(), top1)
	}
}
