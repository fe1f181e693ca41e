package dkv

import (
	"net"
	"testing"
	"time"

	"icache/internal/dataset"
)

// Mixed-version interop: a partitioned-directory rollout is gradual, so
// both directions must keep working — a new sharded client in front of an
// old single dkv process, and an old DirClient talking to a new replica.

// startReplicaServer starts a DirServer in replica mode on 127.0.0.1:0.
func startReplicaServer(t *testing.T, cfg ReplicaConfig) (*DirServer, string, *Directory) {
	t.Helper()
	dir := NewDirectory()
	srv := NewDirServer(dir)
	srv.EnableReplica(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.CloseReplica()
		srv.Close()
	})
	return srv, ln.Addr().String(), dir
}

// TestInteropShardedClientLegacyServer pins the forward direction: a
// sharded client configured with a single legacy (pre-ring) dkv server
// degrades to single-shard routing — every operation lands on that one
// server and behaves exactly like the old DirClient path.
func TestInteropShardedClientLegacyServer(t *testing.T) {
	addr, dir := startDirServer(t) // legacy: no EnableReplica
	s, err := DialSharded([]string{addr}, DialConfig{Timeout: time.Second}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	if ok, err := s.Claim(7, 1); err != nil || !ok {
		t.Fatalf("claim through sharded client: %v/%v", ok, err)
	}
	if node, found, err := s.Lookup(7); err != nil || !found || node != 1 {
		t.Fatalf("lookup: %v/%v/%v", node, found, err)
	}
	owners, err := s.LookupBatch([]dataset.SampleID{7, 8})
	if err != nil || !owners[0].Found || owners[0].Node != 1 || owners[1].Found {
		t.Fatalf("lookup batch: %v/%v", owners, err)
	}
	if _, err := s.Register(1, time.Minute); err != nil {
		t.Fatalf("register: %v", err)
	}
	if renewed, err := s.Heartbeat(1); err != nil || !renewed {
		t.Fatalf("heartbeat: %v/%v", renewed, err)
	}
	if ok, err := s.Release(7, 1); err != nil || !ok {
		t.Fatalf("release: %v/%v", ok, err)
	}
	if n := dir.Len(); n != 0 {
		t.Fatalf("server-side len = %d after release", n)
	}
	if st := s.Ring(); st.LiveReplicas != 1 || st.Failovers != 0 {
		t.Fatalf("ring stats against healthy legacy server: %+v", st)
	}
}

// TestInteropLegacyClientReplicaServer pins the reverse direction: an old
// DirClient pointed at one replica of a partitioned directory keeps
// working — replicas accept data and membership operations for any shard
// (placement is enforced by routing, not rejection).
func TestInteropLegacyClientReplicaServer(t *testing.T) {
	_, addr, dir := startReplicaServer(t, ReplicaConfig{
		Self:  0,
		Peers: map[ReplicaID]string{1: "127.0.0.1:1"}, // never dialed: no exchange loop
	})
	c := dialDir(t, addr) // legacy client: no ring awareness

	if ok, err := c.Claim(42, 3); err != nil || !ok {
		t.Fatalf("legacy claim on replica: %v/%v", ok, err)
	}
	if node, found, err := c.Lookup(42); err != nil || !found || node != 3 {
		t.Fatalf("legacy lookup: %v/%v/%v", node, found, err)
	}
	if _, err := c.Register(3, time.Minute); err != nil {
		t.Fatalf("legacy register: %v", err)
	}
	if renewed, err := c.Heartbeat(3); err != nil || !renewed {
		t.Fatalf("legacy heartbeat: %v/%v", renewed, err)
	}
	if ok, err := c.Release(42, 3); err != nil || !ok {
		t.Fatalf("legacy release: %v/%v", ok, err)
	}
	if n := dir.Len(); n != 0 {
		t.Fatalf("replica len = %d after release", n)
	}
}

// TestInteropRingOpcodesOnLegacyServer pins the wire-level contract the
// ring exchange relies on: a legacy server answers the ring opcodes with a
// status-framed error (proof of life, no view), and RingViewExchange
// surfaces that as legacy=true rather than a failure.
func TestInteropRingOpcodesOnLegacyServer(t *testing.T) {
	addr, _ := startDirServer(t) // legacy
	c := dialDir(t, addr)

	remote, legacy, err := c.RingViewExchange(1, NewRingView(1, []ReplicaID{0, 1}))
	if err != nil {
		t.Fatalf("RingViewExchange vs legacy server: %v", err)
	}
	if !legacy {
		t.Fatal("legacy server not reported as legacy")
	}
	if len(remote.Replicas) != 0 {
		t.Fatalf("legacy server produced a view: %+v", remote)
	}
	if _, _, err := c.Handoff(1, NewRingView(1, []ReplicaID{0, 1}), 16); err == nil {
		t.Fatal("Handoff vs legacy server did not error")
	} else if !isServerError(err) {
		t.Fatalf("Handoff error is not a ServerError: %v", err)
	}
}

// TestInteropReplicasExchangeViews pins the replica-to-replica path over
// real TCP: two replicas converge on a shared view via ExchangeRing, and a
// hand-off push drops entries for shards the receiver no longer owns.
func TestInteropReplicasExchangeViews(t *testing.T) {
	// Replica addressing is circular, so listen first and wire peers after.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, addr1 := ln0.Addr().String(), ln1.Addr().String()

	dirs := []*Directory{NewDirectory(), NewDirectory()}
	srvs := []*DirServer{NewDirServer(dirs[0]), NewDirServer(dirs[1])}
	srvs[0].EnableReplica(ReplicaConfig{Self: 0, Peers: map[ReplicaID]string{1: addr1}})
	srvs[1].EnableReplica(ReplicaConfig{Self: 1, Peers: map[ReplicaID]string{0: addr0}})
	go srvs[0].Serve(ln0)
	go srvs[1].Serve(ln1)
	t.Cleanup(func() {
		for _, s := range srvs {
			s.CloseReplica()
			s.Close()
		}
	})

	srvs[0].ExchangeRing()
	v0, v1 := srvs[0].ReplicaView(), srvs[1].ReplicaView()
	if !v0.Equal(v1) || len(v0.Replicas) != 2 {
		t.Fatalf("views did not converge: %+v vs %+v", v0, v1)
	}

	// Strand entries on replica 0 for shards replica 1 owns, then push a
	// hand-off: exactly those entries must be swept.
	view := srvs[0].ReplicaView()
	misplaced := 0
	for id := dataset.SampleID(0); id < 100; id++ {
		dirs[0].Claim(id, 5)
		if r, _ := view.Owner(id); r != 0 {
			misplaced++
		}
	}
	if misplaced == 0 {
		t.Fatal("no keys route to replica 1 — test premise broken")
	}
	c := dialDir(t, addr0)
	dropped, epoch, err := c.Handoff(1, view, 0)
	if err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if dropped != misplaced {
		t.Fatalf("handoff dropped %d entries, want %d", dropped, misplaced)
	}
	if epoch != view.Epoch {
		t.Fatalf("handoff epoch %d, want %d", epoch, view.Epoch)
	}
	if got := dirs[0].Len(); got != 100-misplaced {
		t.Fatalf("replica 0 len = %d after handoff, want %d", got, 100-misplaced)
	}
	if got := srvs[0].HandoffDropped(); got != int64(misplaced) {
		t.Fatalf("HandoffDropped = %d, want %d", got, misplaced)
	}
}
