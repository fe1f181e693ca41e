package icache

// Chaos suite for the distributed iCache (ISSUE 1 acceptance criterion):
// a fig13-style 2-node training run over an NFS backend must complete every
// epoch while the injector kills peer reads and partitions the directory
// for a whole epoch, with all degradations counted, capacity and ownership
// invariants intact, and the run bit-for-bit deterministic under its seeds.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/faults"
	"icache/internal/leakcheck"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/storage"
	"icache/internal/train"
)

func chaosSpec() dataset.Spec {
	return dataset.Spec{Name: "chaos", NumSamples: 2000, MeanSampleBytes: 4096, Seed: 3}
}

// chaosCluster builds the fig13-style deployment in miniature: N nodes over
// a shared NFS backend, each caching 20% of the dataset.
func chaosCluster(t *testing.T, nodes int, seed int64) *Cluster {
	t.Helper()
	back, err := storage.NewBackend(chaosSpec(), storage.NFS())
	if err != nil {
		t.Fatal(err)
	}
	perNode := back.Spec().TotalBytes() / 5
	cl, err := NewCluster(back, DefaultClusterConfig(nodes, perNode), sampling.DefaultIIS(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// chaosJob runs a distributed training job against the cluster and returns
// its per-epoch results.
func chaosJob(t *testing.T, cl *Cluster, epochs int, seed int64) metrics.RunStats {
	t.Helper()
	cfg := train.DefaultConfig(train.ResNet18, chaosSpec())
	cfg.Epochs = epochs
	cfg.BatchSize = 128
	cfg.Seed = seed
	job, err := train.NewDistJob(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return job.Run()
}

// assertClusterInvariants checks the structural invariants that must hold
// after any fault schedule: per-node capacity respected, no sample resident
// on two nodes, and exact request conservation.
func assertClusterInvariants(t *testing.T, cl *Cluster, wantRequests int64) {
	t.Helper()
	seen := map[dataset.SampleID]int{}
	for i, n := range cl.nodes {
		if n.srv.h.used > n.srv.h.capBytes {
			t.Errorf("node %d H-cache over capacity: %d > %d", i, n.srv.h.used, n.srv.h.capBytes)
		}
		if n.srv.l.used > n.srv.l.capBytes {
			t.Errorf("node %d L-cache over capacity: %d > %d", i, n.srv.l.used, n.srv.l.capBytes)
		}
		for id := range n.srv.h.items {
			if prev, dup := seen[id]; dup {
				t.Errorf("sample %d resident on nodes %d and %d", id, prev, i)
			}
			seen[id] = i
		}
		for id := range n.srv.l.items {
			if prev, dup := seen[id]; dup {
				t.Errorf("sample %d resident on nodes %d and %d", id, prev, i)
			}
			seen[id] = i
		}
	}
	st := cl.Stats()
	if got := st.Requests(); got != wantRequests {
		t.Errorf("conservation broken: hits+misses+subs+degraded = %d, want %d requests (%v)",
			got, wantRequests, st)
	}
}

// fetchedTotal sums the per-epoch fetch counts — the number of fetchOne
// calls the cluster must account for.
func fetchedTotal(rs metrics.RunStats) int64 {
	var total int64
	for _, e := range rs.Epochs {
		total += int64(e.SamplesFetched)
	}
	return total
}

// TestChaosTrainingSurvivesFaultSchedule is the acceptance test: for three
// distinct seeds, a 2-node training run completes every epoch while the
// directory is partitioned for (at least) all of epoch 1 and every 5th
// remote-cache read fails. Fault-free and chaos runs must fetch the same
// sample volume per epoch — degradation costs time, never data — and the
// chaos run must be deterministic under its seeds.
func TestChaosTrainingSurvivesFaultSchedule(t *testing.T) {
	const epochs = 4
	for _, seed := range []int64{1, 42, 1337} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			leakcheck.Check(t)

			// Phase 1: fault-free reference run to learn the epoch windows.
			clean := chaosCluster(t, 2, seed)
			cleanRS := chaosJob(t, clean, epochs, seed)
			if len(cleanRS.Epochs) != epochs {
				t.Fatalf("fault-free run finished %d epochs, want %d", len(cleanRS.Epochs), epochs)
			}
			assertClusterInvariants(t, clean, fetchedTotal(cleanRS))
			if clean.Stats().Degraded != 0 {
				t.Fatalf("fault-free run recorded %d degraded requests", clean.Stats().Degraded)
			}
			epoch1Start := cleanRS.Epochs[0].Duration
			epoch1End := epoch1Start + cleanRS.Epochs[1].Duration

			// Phase 2: same workload under chaos. The directory partition
			// covers the fault-free run's entire epoch-1 window; since chaos
			// only slows the run down, virtual time epoch1Start..epoch1End is
			// reached within epoch 1, so at least part of (and in practice
			// most of) the epoch runs partitioned.
			chaosRun := func() (*Cluster, metrics.RunStats) {
				cl := chaosCluster(t, 2, seed)
				cl.SetFaultInjector(faults.New(seed).Add(
					faults.Partition(faults.OpDirLookup, epoch1Start, epoch1End, nil),
					faults.Partition(faults.OpDirClaim, epoch1Start, epoch1End, nil),
					faults.Partition(faults.OpDirRelease, epoch1Start, epoch1End, nil),
					faults.Rule{Op: faults.OpPeerRead, Every: 5, Action: faults.ActError},
				))
				return cl, chaosJob(t, cl, epochs, seed)
			}
			cl, rs := chaosRun()

			// Every epoch completes with the full data volume: no lost samples.
			if len(rs.Epochs) != epochs {
				t.Fatalf("chaos run finished %d epochs, want %d", len(rs.Epochs), epochs)
			}
			for e := range rs.Epochs {
				if got, want := rs.Epochs[e].SamplesFetched, cleanRS.Epochs[e].SamplesFetched; got != want {
					t.Errorf("epoch %d fetched %d samples under chaos, fault-free fetched %d", e, got, want)
				}
				if rs.Epochs[e].SamplesTrained <= 0 {
					t.Errorf("epoch %d trained no samples", e)
				}
			}

			// The faults actually bit, and every bite was counted.
			res := cl.Resilience()
			if cl.Stats().Degraded == 0 {
				t.Error("no degraded requests recorded under chaos")
			}
			if res.DirFailures == 0 {
				t.Error("directory partition produced no DirFailures")
			}
			if res.PeerFailures == 0 {
				t.Error("peer-read faults produced no PeerFailures")
			}
			assertClusterInvariants(t, cl, fetchedTotal(rs))

			// Chaos costs time, never data: epoch 1 (the partitioned epoch)
			// must not be cheaper than its fault-free twin.
			if rs.Epochs[1].Duration < cleanRS.Epochs[1].Duration {
				t.Errorf("partitioned epoch 1 took %v, faster than fault-free %v",
					rs.Epochs[1].Duration, cleanRS.Epochs[1].Duration)
			}

			// Determinism: the identical seeds reproduce the identical run.
			_, rs2 := chaosRun()
			if !reflect.DeepEqual(rs, rs2) {
				t.Error("same seeds produced different chaos runs")
			}
		})
	}
}

// randomHealingSchedule draws a fault schedule in which every rule is
// bounded — by a call-count window, a virtual-time window, or a fire-count
// cap — so the system is eventually fault-free ("eventually healing").
func randomHealingSchedule(rng *rand.Rand) []faults.Rule {
	ops := []string{faults.OpDirLookup, faults.OpDirClaim, faults.OpDirRelease, faults.OpPeerRead}
	var rules []faults.Rule
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(3) {
		case 0: // call-count window
			from := int64(rng.Intn(200))
			rules = append(rules, faults.Rule{
				Op: op, From: from, Until: from + 1 + int64(rng.Intn(100)),
				Action: faults.ActError,
			})
		case 1: // virtual-time window
			from := simclock.Time(rng.Intn(2000)) * time.Millisecond
			rules = append(rules, faults.Partition(op, from, from+simclock.Time(1+rng.Intn(500))*time.Millisecond, nil))
		default: // probabilistic with a hard fire cap
			rules = append(rules, faults.Rule{
				Op: op, Prob: 0.2 + rng.Float64()*0.6, Count: int64(1 + rng.Intn(50)),
				Action: faults.ActError,
			})
		}
	}
	return rules
}

// TestChaosConservationProperty is the satellite property test: under ANY
// eventually-healing fault schedule, hits + misses + substitutions +
// degraded exactly equals total requests, every batch is served in full,
// and no sample is resident on two nodes.
func TestChaosConservationProperty(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		trial := trial
		t.Run(time.Duration(trial).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + trial))
			cl := chaosCluster(t, 2, trial)
			cl.SetFaultInjector(faults.New(trial).Add(randomHealingSchedule(rng)...))

			tr, err := sampling.NewTracker(chaosSpec().NumSamples, 3.0, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < chaosSpec().NumSamples; i++ {
				tr.Observe(dataset.SampleID(i), chaosSpec().Difficulty(dataset.SampleID(i))*2+rng.Float64()*0.1)
			}

			var requests int64
			ats := make([]simclock.Time, cl.Nodes())
			for e := 0; e < 3; e++ {
				sched := cl.BeginEpoch(ats[0], e, tr, rng)
				for i, batch := range sched.Batches(128) {
					node := i % cl.Nodes()
					end, served := cl.FetchBatchOn(node, ats[node], batch)
					if len(served) != len(batch) {
						t.Fatalf("epoch %d batch %d: served %d of %d", e, i, len(served), len(batch))
					}
					requests += int64(len(batch))
					ats[node] = end
				}
			}
			assertClusterInvariants(t, cl, requests)
		})
	}
}

// TestChaosPeerDelayOnlySlowsRun: a delay-only schedule costs time, never
// data — no request is degraded or lost, conservation stays exact, and a
// heavy per-read delay makes the run measurably slower. (Exact per-counter
// equality with the fault-free run is NOT required: prefetch delivery is
// time-dependent, so shifting virtual time legitimately shifts the
// hit/miss/substitution split.)
func TestChaosPeerDelayOnlySlowsRun(t *testing.T) {
	const epochs = 3
	run := func(inj *faults.Injector) (metrics.RunStats, *Cluster) {
		cl := chaosCluster(t, 2, 5)
		cl.SetFaultInjector(inj)
		rs := chaosJob(t, cl, epochs, 5)
		return rs, cl
	}
	baseRS, _ := run(nil)
	inj := faults.New(5).Add(faults.DelayEvery(faults.OpPeerRead, 2, 50*time.Millisecond))
	slowRS, slowCl := run(inj)

	if got := slowCl.Stats().Degraded; got != 0 {
		t.Fatalf("delay-only schedule recorded %d degraded requests", got)
	}
	if res := slowCl.Resilience(); res.PeerFailures != 0 || res.DirFailures != 0 {
		t.Fatalf("delay-only schedule recorded hard failures: %+v", res)
	}
	if inj.Fired(faults.OpPeerRead) == 0 {
		t.Fatal("delay rule never fired")
	}
	for e := 0; e < epochs; e++ {
		if slowRS.Epochs[e].SamplesFetched != baseRS.Epochs[e].SamplesFetched {
			t.Fatalf("epoch %d: delayed run fetched %d, base %d",
				e, slowRS.Epochs[e].SamplesFetched, baseRS.Epochs[e].SamplesFetched)
		}
	}
	assertClusterInvariants(t, slowCl, fetchedTotal(slowRS))
	var baseT, slowT simclock.Time
	for e := 0; e < epochs; e++ {
		baseT += baseRS.Epochs[e].Duration
		slowT += slowRS.Epochs[e].Duration
	}
	if slowT <= baseT {
		t.Fatalf("delayed run (%v) not slower than fault-free run (%v)", slowT, baseT)
	}
}
