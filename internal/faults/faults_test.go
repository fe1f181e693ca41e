package faults

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/simclock"
	"icache/internal/wire"
)

func TestFailNFiresExactlyN(t *testing.T) {
	boom := errors.New("boom")
	in := New(1).Add(FailN("op", 3, boom))
	for i := 0; i < 3; i++ {
		d := in.Decide("op")
		if d.Action != ActError || !errors.Is(d.Err, boom) {
			t.Fatalf("call %d: decision %+v, want error boom", i, d)
		}
	}
	if d := in.Decide("op"); d.Fault() {
		t.Fatalf("4th call faulted: %+v", d)
	}
	if got := in.Fired("op"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
	if got := in.Calls("op"); got != 4 {
		t.Fatalf("Calls = %d, want 4", got)
	}
}

func TestFailNZeroNeverFires(t *testing.T) {
	in := New(1).Add(FailN("op", 0, errors.New("x")))
	for i := 0; i < 10; i++ {
		if in.Decide("op").Fault() {
			t.Fatal("FailN(0) fired")
		}
	}
}

func TestCallCountWindow(t *testing.T) {
	in := New(1).Add(Rule{Op: "op", From: 2, Until: 4, Action: ActError})
	var pattern []bool
	for i := 0; i < 6; i++ {
		pattern = append(pattern, in.Decide("op").Fault())
	}
	want := []bool{false, false, true, true, false, false}
	if !reflect.DeepEqual(pattern, want) {
		t.Fatalf("window pattern %v, want %v", pattern, want)
	}
}

func TestVirtualTimeWindow(t *testing.T) {
	in := New(1).Add(Partition("dir.lookup", 100*time.Millisecond, 200*time.Millisecond, nil))
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, {99 * time.Millisecond, false},
		{100 * time.Millisecond, true}, {150 * time.Millisecond, true},
		{199 * time.Millisecond, true}, {200 * time.Millisecond, false},
	}
	for _, c := range cases {
		if got := in.DecideAt("dir.lookup", c.at).Fault(); got != c.want {
			t.Fatalf("at %v: fault=%v, want %v", c.at, got, c.want)
		}
	}
	// A call with no virtual clock must never match a time-bounded rule.
	if in.Decide("dir.lookup").Fault() {
		t.Fatal("time-bounded rule fired without a clock")
	}
}

func TestEveryStride(t *testing.T) {
	in := New(1).Add(DropEvery("conn.read", 3))
	var fired int
	for i := 0; i < 9; i++ {
		if in.Decide("conn.read").Fault() {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d of 9 with Every=3, want 3", fired)
	}
}

func TestProbDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []bool {
		in := New(seed).Add(ErrorProb("op", 0.5, nil))
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Decide("op").Fault())
		}
		return out
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if c := run(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical 64-call schedules (suspicious)")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	in := New(1).Add(
		Rule{Op: "op", Action: ActError, Err: errA, Count: 1},
		Rule{Op: "op", Action: ActError, Err: errB},
	)
	if d := in.Decide("op"); !errors.Is(d.Err, errA) {
		t.Fatalf("first call got %v, want a", d.Err)
	}
	if d := in.Decide("op"); !errors.Is(d.Err, errB) {
		t.Fatalf("second call got %v, want b (first rule exhausted)", d.Err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Decide("op").Fault() || in.DecideAt("op", time.Second).Fault() {
		t.Fatal("nil injector fired")
	}
	if in.Calls("op") != 0 || in.Fired("op") != 0 || in.TotalFired() != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestResetClearsStateKeepsRules(t *testing.T) {
	in := New(1).Add(FailN("op", 1, nil))
	in.Decide("op")
	in.Reset()
	if in.Calls("op") != 0 {
		t.Fatal("Reset kept call counters")
	}
	if d := in.Decide("op"); !d.Fault() {
		t.Fatal("rule did not re-arm after Reset")
	}
}

// TestConnDropSeversBothEnds verifies ActDrop closes the wrapped socket so
// the remote side observes the failure too — the chaos building block for
// "kill this peer connection".
func TestConnDropSeversBothEnds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A frame is one write, so write index == frame index: let the first
	// frame through and drop the connection on the second.
	in := New(1).Add(Rule{Op: OpConnWrite, From: 1, Action: ActDrop})
	conn := WrapConn(raw, in)
	if err := wire.WritePayload(conn, []byte("ok")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := wire.WritePayload(conn, []byte("ok")); err == nil {
		t.Fatal("dropped write succeeded")
	}
	if n := in.Calls(OpConnWrite); n != 2 {
		t.Fatalf("two frames made %d writes, want one write per frame", n)
	}
	srv := <-accepted
	defer srv.Close()
	if _, err := wire.ReadFrame(srv); err != nil {
		t.Fatalf("first frame should arrive intact: %v", err)
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(srv); err == nil {
		t.Fatal("server read succeeded after connection drop")
	}
}

// TestConnCorruptDetectedByFraming flips a byte mid-frame and checks the
// receiver either errors or sees a different payload — never silently the
// original bytes.
func TestConnCorruptDetectedByFraming(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	in := New(1).Add(CorruptEvery(OpConnWrite, 1))
	wc := WrapConn(client, in)
	payload := []byte("the quick brown fox")
	go func() { _ = wire.WritePayload(wc, payload) }()
	server.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	got, err := wire.ReadFrame(server)
	if err == nil && reflect.DeepEqual(got, payload) {
		t.Fatal("corrupted frame arrived intact")
	}
}

// TestWrapDirFaultsOps verifies the directory wrapper gates each operation
// on its own op name and leaves Len unfaulted.
func TestWrapDirFaultsOps(t *testing.T) {
	raw := dkv.NewDirectory()
	in := New(1).Add(FailN(OpDirClaim, 1, nil))
	dir := WrapDir(dkv.Local{Dir: raw}, in)

	if _, err := dir.Claim(7, 1); err == nil {
		t.Fatal("first claim should be faulted")
	}
	if ok, err := dir.Claim(7, 1); err != nil || !ok {
		t.Fatalf("second claim = (%v,%v), want success", ok, err)
	}
	if owner, ok, err := dir.Lookup(7); err != nil || !ok || owner != 1 {
		t.Fatalf("lookup = (%v,%v,%v)", owner, ok, err)
	}
	if n, err := dir.Len(); err != nil || n != 1 {
		t.Fatalf("len = (%d,%v), want 1", n, err)
	}
}

// TestWrapDirVirtualClock verifies time-keyed rules consult the installed
// clock.
func TestWrapDirVirtualClock(t *testing.T) {
	raw := dkv.NewDirectory()
	in := New(1).Add(Partition(OpDirLookup, time.Second, 2*time.Second, nil))
	dir := WrapDir(dkv.Local{Dir: raw}, in)
	now := time.Duration(0)
	dir.Clock = func() simclock.Time { return now }

	if _, _, err := dir.Lookup(1); err != nil {
		t.Fatalf("lookup before partition: %v", err)
	}
	now = 1500 * time.Millisecond
	if _, _, err := dir.Lookup(1); err == nil {
		t.Fatal("lookup inside partition succeeded")
	}
	now = 2 * time.Second
	if _, _, err := dir.Lookup(1); err != nil {
		t.Fatalf("lookup after partition: %v", err)
	}
}

// TestScopedPartitionBlindsOneReplica is the per-replica composition
// regression test: three replicas of a partitioned directory each sit
// behind their own scoped wrapper sharing one injector, and a partition
// rule keyed on ScopedOp(OpDirLookup, "r1") blinds EXACTLY replica 1 —
// the siblings keep serving, the sharded client fails replica 1's shards
// over without surfacing an error, and each wrapper's call counters
// advance independently.
func TestScopedPartitionBlindsOneReplica(t *testing.T) {
	var now simclock.Time
	clock := func() simclock.Time { return now }
	const from, until = 100 * time.Millisecond, 200 * time.Millisecond
	inj := New(7).Add(Partition(ScopedOp(OpDirLookup, "r1"), from, until, nil))

	replicas := make(map[dkv.ReplicaID]dkv.Service, 3)
	wrappers := make([]*Dir, 3)
	for r := 0; r < 3; r++ {
		w := WrapDirScoped(dkv.Local{Dir: dkv.NewDirectory()}, inj, "r"+string(rune('0'+r)))
		w.Clock = clock
		wrappers[r] = w
		replicas[dkv.ReplicaID(r)] = w
	}
	s := dkv.NewShardedDir(replicas, dkv.ShardedConfig{FailoverTTL: time.Minute, Clock: clock})

	// Healthy phase: claim keys through the sharded client and note which
	// shard each landed on.
	view := s.View()
	byReplica := map[dkv.ReplicaID][]dataset.SampleID{}
	for id := dataset.SampleID(0); id < 120; id++ {
		if ok, err := s.Claim(id, 1); err != nil || !ok {
			t.Fatalf("claim(%d): %v/%v", id, ok, err)
		}
		r, _ := view.Owner(id)
		byReplica[r] = append(byReplica[r], id)
	}
	if len(byReplica[1]) == 0 {
		t.Fatal("replica 1 owns no shard keys — test premise broken")
	}

	// Inside the window replica 1 is blind; its siblings are not.
	now = simclock.Time(150 * time.Millisecond)
	if _, _, err := wrappers[1].Lookup(byReplica[1][0]); err == nil {
		t.Fatal("partitioned replica 1 answered a lookup")
	}
	for _, r := range []int{0, 2} {
		if _, found, err := wrappers[r].Lookup(byReplica[dkv.ReplicaID(r)][0]); err != nil || !found {
			t.Fatalf("unpartitioned replica %d: found=%v err=%v", r, found, err)
		}
	}

	// The sharded client absorbs the partition: every key still answers
	// without error; replica 1's shards fail over to survivors (which never
	// saw those claims, so clean "unowned").
	for r, ids := range byReplica {
		for _, id := range ids {
			_, found, err := s.Lookup(id)
			if err != nil {
				t.Fatalf("sharded lookup(%d) during partition: %v", id, err)
			}
			if want := r != 1; found != want {
				t.Fatalf("sharded lookup(%d) on replica %d: found=%v, want %v", id, r, found, want)
			}
		}
	}
	if st := s.Ring(); st.LiveReplicas != 2 || st.Failovers < 1 {
		t.Fatalf("ring stats during one-replica partition: %+v", st)
	}

	// The rule fired only under replica 1's scope, and each wrapper's call
	// counters advanced independently of its siblings.
	if inj.Fired(ScopedOp(OpDirLookup, "r1")) == 0 {
		t.Error("partition rule never fired under scope r1")
	}
	for _, scope := range []string{"r0", "r2"} {
		if got := inj.Fired(ScopedOp(OpDirLookup, scope)); got != 0 {
			t.Errorf("scope %s fired %d faults, want 0", scope, got)
		}
		if inj.Calls(ScopedOp(OpDirLookup, scope)) == 0 {
			t.Errorf("scope %s recorded no calls", scope)
		}
	}
	if c0, c1 := inj.Calls(ScopedOp(OpDirLookup, "r0")), inj.Calls(ScopedOp(OpDirLookup, "r1")); c0 == c1 {
		t.Errorf("scoped call counters did not advance independently: r0=%d r1=%d", c0, c1)
	}
}
