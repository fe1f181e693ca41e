package dkv

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
)

// The dkv half of the partitioned-directory chaos acceptance suite (the
// node half is internal/rpc's TestChaosDirReplicaFailover): three directory
// servers on an in-memory network in a virtual-clock bubble, behind one
// sharded client, one killed mid-epoch, pinning that
//
//   - survivors serve every operation on (the sharded client fails the dead
//     replica's shards over in-call, so callers see zero errors),
//   - the client's view — the only ring view there is — drops the victim,
//   - the answer set is conserved and deterministic across seeds: every key
//     claimed before the crash and owned by a surviving shard is still
//     found, every dead-shard key reports clean "unowned" (not an error),
//     and repeated runs agree exactly.

// ringChaosCluster is three DirServers partitioned by a sharded client over
// all of them.
type ringChaosCluster struct {
	addrs []string
	srvs  []*DirServer
	s     *ShardedDir
}

func startRingChaosCluster(t *testing.T, n *transporttest.Network) *ringChaosCluster {
	t.Helper()
	c := &ringChaosCluster{}
	for i := 0; i < 3; i++ {
		ln := n.ListenAny()
		srv := NewDirServer(NewDirectory())
		go srv.Serve(ln)
		c.addrs = append(c.addrs, ln.Addr().String())
		c.srvs = append(c.srvs, srv)
	}
	s, err := DialSharded(c.addrs, DialConfig{Timeout: time.Second}, ShardedConfig{FailoverTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c.s = s
	t.Cleanup(func() {
		s.Close()
		for _, srv := range c.srvs {
			srv.Close()
		}
	})
	return c
}

// ringChaosOutcome is one run's full observable result, for repeated-run
// determinism comparison.
type ringChaosOutcome struct {
	Claimed    int
	FoundAfter int
	GoneAfter  int
	LiveAfter  int
	Failovers  int64
}

// runRingChaosScenario claims keys across the ring, kills replica `victim`
// mid-epoch, and reads everything back through the survivors.
func runRingChaosScenario(t *testing.T, n *transporttest.Network, seed int64, victim ReplicaID) ringChaosOutcome {
	t.Helper()
	c := startRingChaosCluster(t, n)

	// Deterministic per-seed key set (spread, not sequential, so every shard
	// owns some).
	const keys = 200
	ids := make([]dataset.SampleID, keys)
	for i := range ids {
		ids[i] = dataset.SampleID(seed*10_000 + int64(i)*7)
	}
	out := ringChaosOutcome{}
	for _, id := range ids {
		ok, err := c.s.Claim(id, 1)
		if err != nil || !ok {
			t.Fatalf("seed %d: pre-crash claim(%d): %v/%v", seed, id, ok, err)
		}
		out.Claimed++
	}
	victimView := c.s.View()
	deadShard := make(map[dataset.SampleID]bool)
	for _, id := range ids {
		if r, _ := victimView.Owner(id); r == victim {
			deadShard[id] = true
		}
	}
	if len(deadShard) == 0 {
		t.Fatalf("seed %d: victim replica %d owned no keys", seed, victim)
	}

	// Kill one replica mid-epoch: hard close, connections die.
	c.srvs[victim].Close()

	// Every key must still answer without error: dead-shard keys fail over
	// to a survivor (which never saw the claim, so clean "unowned");
	// surviving shards are untouched.
	for _, id := range ids {
		_, found, err := c.s.Lookup(id)
		if err != nil {
			t.Fatalf("seed %d: post-crash lookup(%d) errored: %v", seed, id, err)
		}
		if found != !deadShard[id] {
			t.Fatalf("seed %d: post-crash lookup(%d): found=%v, deadShard=%v",
				seed, id, found, deadShard[id])
		}
		if found {
			out.FoundAfter++
		} else {
			out.GoneAfter++
		}
	}
	// Conservation: every request got exactly one answer.
	if out.FoundAfter+out.GoneAfter != out.Claimed {
		t.Fatalf("seed %d: answers %d+%d != requests %d",
			seed, out.FoundAfter, out.GoneAfter, out.Claimed)
	}
	// The batch path agrees with the serial path post-crash.
	owners, err := c.s.LookupBatch(ids)
	if err != nil {
		t.Fatalf("seed %d: post-crash LookupBatch: %v", seed, err)
	}
	for i, o := range owners {
		if o.Found == deadShard[ids[i]] {
			t.Fatalf("seed %d: batch[%d]=%+v disagrees with deadShard=%v",
				seed, i, o, deadShard[ids[i]])
		}
	}
	// New claims on dead shards land on survivors and serve on.
	reclaim := ids[:20]
	for _, id := range reclaim {
		if ok, err := c.s.Claim(id, 2); err != nil {
			t.Fatalf("seed %d: post-crash claim(%d): %v", seed, id, err)
		} else if deadShard[id] && !ok {
			t.Fatalf("seed %d: post-crash claim(%d) on failed-over shard denied", seed, id)
		}
	}

	st := c.s.Ring()
	if st.LiveReplicas != 2 {
		t.Fatalf("seed %d: client sees %d live replicas after crash, want 2", seed, st.LiveReplicas)
	}
	if st.Failovers < 1 {
		t.Fatalf("seed %d: no client failover recorded", seed)
	}
	out.LiveAfter = st.LiveReplicas
	out.Failovers = st.Failovers

	if v := c.s.View(); v.Contains(victim) || len(v.Replicas) != 2 {
		t.Fatalf("seed %d: client view %+v after the crash, want the two survivors", seed, v)
	}
	// Survivors still serve a plain client.
	for r := ReplicaID(0); r < 3; r++ {
		if r == victim {
			continue
		}
		cl := dialDir(t, c.addrs[r])
		if _, _, err := cl.Lookup(ids[0]); err != nil {
			t.Fatalf("seed %d: survivor %d not serving after the crash: %v", seed, r, err)
		}
	}
	return out
}

// TestChaosRingReplicaCrash is the dkv acceptance gate: under 3 seeds, kill
// one of three replicas mid-epoch and pin survivor service, in-call
// failover, conservation, the client's view, and repeated-run determinism.
func TestChaosRingReplicaCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	for i, seed := range []int64{1, 42, 1337} {
		seed, victim := seed, ReplicaID(i%3)
		t.Run(fmt.Sprintf("seed=%d/victim=%d", seed, victim), func(t *testing.T) {
			vt.Run(t, func(t *testing.T) {
				n := transporttest.NewNetwork(t)
				first := runRingChaosScenario(t, n, seed, victim)
				again := runRingChaosScenario(t, n, seed, victim)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("rerun diverged:\nfirst: %+v\nagain: %+v", first, again)
				}
			})
		})
	}
}
