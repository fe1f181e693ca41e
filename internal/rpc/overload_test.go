package rpc

// Overload-control suite: the admission gate (and the refusal of bare frames),
// server-side deadline expiry, and the chaos half — a delay-faulted peer
// whose batches must still complete within the caller's deadline via the
// backend fallback, with the per-peer circuit breaker tripping within its
// threshold and recovering through a half-open probe once the fault lifts.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/leakcheck"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/wire"
)

// noRetryPolicy keeps conservation ledgers exact: one offered request is
// exactly one wire request, never silently reissued.
func noRetryPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 2}
}

// startGatedServer is startServer with an admission gate installed before
// the listener starts accepting (SetAdmission's contract).
func startGatedServer(t *testing.T, gate *overload.Gate) (*Server, string) {
	t.Helper()
	spec := testSpec()
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, err := storage.NewDataSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	srv.SetAdmission(gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestAdmissionShedLegacyAndMux holds the only admission slot and verifies
// that the frame handler sheds data requests with a retry-after hint — to a
// mux client, which must not burn retry attempts on the rejection — while
// health checks keep flowing, and that a bare frame written by hand (what a
// client from before the mux-only wire sends) is refused before admission:
// neither served nor shed. Releasing the slot restores service, and the
// ledger stays exact: ids served + requests shed == requests offered.
func TestAdmissionShedLegacyAndMux(t *testing.T) {
	gate := overload.NewGate(overload.GateConfig{MaxInflight: 1})
	srv, addr := startGatedServer(t, gate)

	ok, _ := gate.Admit(time.Now())
	if !ok {
		t.Fatal("could not occupy the admission slot")
	}

	mc, err := DialConfigured(addr, DialConfig{Timeout: time.Second, Policy: noRetryPolicy()})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, err = mc.GetBatch([]dataset.SampleID{1})
	var ra *overload.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("mux: want RetryAfterError from a shedding server, got %v", err)
	}
	if ra.After <= 0 {
		t.Fatal("mux: shed response carried no backoff hint")
	}
	if retries, _ := mc.Resilience(); retries != 0 {
		t.Fatalf("mux: a shed rejection was retried %d times", retries)
	}
	// An operator must still see the overloaded server: health checks
	// bypass the gate.
	if err := mc.Ping(); err != nil {
		t.Fatalf("mux: ping gated during shed: %v", err)
	}
	mc.Close()

	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewReader(exchange(t, conn, encodeGetBatchRequest([]dataset.SampleID{1})))
	if st, msg := d.U8(), d.Str(); st != transport.StatusErr || msg != "transport: request without mux envelope" {
		t.Fatalf("bare: GetBatch answered status %d %q, want it refused", st, msg)
	}
	conn.Close()

	shed, expired := srv.OverloadCounters()
	if shed != 1 || expired != 0 {
		t.Fatalf("OverloadCounters = (shed=%d, expired=%d), want (1, 0)", shed, expired)
	}
	if gs := gate.Stats(); gs.Shed != 1 {
		t.Fatalf("gate shed %d, want 1", gs.Shed)
	}

	gate.Done()
	c := dial(t, addr)
	samples, err := c.GetBatch([]dataset.SampleID{1, 2, 3})
	if err != nil {
		t.Fatalf("after releasing the slot: %v", err)
	}
	if len(samples) != 3 {
		t.Fatalf("served %d of 3", len(samples))
	}

	// Conservation: 1 shed single-id request + 3 served ids == 4 offered.
	// Cache counters are written under policyMu; snapshot under it too (the
	// handler goroutine's final writes carry no cross-socket ordering the
	// race detector can see).
	srv.policyMu.Lock()
	st := srv.cache.Stats()
	srv.policyMu.Unlock()
	if got := st.Hits + st.Misses + st.Substitutions + st.Degraded + shed + expired; got != 4 {
		t.Fatalf("ledger: hits(%d)+misses(%d)+subs(%d)+degraded(%d)+shed(%d)+expired(%d) = %d, want 4",
			st.Hits, st.Misses, st.Substitutions, st.Degraded, shed, expired, got)
	}
}

// TestDeadlineExpiredAtServer drops a request whose budget is already spent
// on arrival: the server answers transport.StatusExpired without touching the policy
// engine or the backend, and counts the drop.
func TestDeadlineExpiredAtServer(t *testing.T) {
	srv, _, source := startServer(t)

	before := source.Reads()
	resp := srv.dispatch(transport.WrapDeadline(0, encodeGetBatchRequest([]dataset.SampleID{1, 2})))
	if len(resp) == 0 || resp[0] != transport.StatusExpired {
		t.Fatalf("spent budget answered status %v, want transport.StatusExpired", resp[:1])
	}
	if got := source.Reads() - before; got != 0 {
		t.Fatalf("expired request still read the backend %d times", got)
	}
	srv.policyMu.Lock()
	st := srv.cache.Stats()
	srv.policyMu.Unlock()
	if st.Requests() != 0 {
		t.Fatalf("expired request reached the policy engine: %d requests accounted", st.Requests())
	}
	if shed, expired := srv.OverloadCounters(); shed != 0 || expired != 1 {
		t.Fatalf("OverloadCounters = (shed=%d, expired=%d), want (0, 1)", shed, expired)
	}
}

// TestDeadlineExceededClientClassification: a context budget far too small
// for even a loopback round trip must surface as ErrDeadlineExceeded —
// whether the local timer fired first or the server answered transport.StatusExpired —
// never as a generic transport error.
func TestDeadlineExceededClientClassification(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := DialConfigured(addr, DialConfig{Timeout: time.Second, Policy: noRetryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Microsecond))
	defer cancel()
	_, err = c.GetBatchCtx(ctx, []dataset.SampleID{1})
	if err == nil {
		t.Fatal("a 1µs budget cannot complete a TCP round trip")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded in the chain, got %v", err)
	}
}

// slowGate is a toggleable per-read stall shared by every connection of one
// wrapped listener — the "delay-faulted peer" of the chaos test. Unlike a
// dropped connection, a delayed one holds TCP open while answering nothing,
// which is exactly the failure a per-RPC deadline plus circuit breaker must
// bound.
type slowGate struct{ delayNanos int64 }

func (g *slowGate) set(d time.Duration) { atomic.StoreInt64(&g.delayNanos, int64(d)) }

type slowConn struct {
	net.Conn
	g *slowGate
}

func (c slowConn) Read(p []byte) (int, error) {
	if d := atomic.LoadInt64(&c.g.delayNanos); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return c.Conn.Read(p)
}

type slowListener struct {
	net.Listener
	g *slowGate
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{Conn: c, g: l.g}, nil
}

// TestChaosOverloadDelayedPeer runs the two-node deployment with node B
// behind a read-stalling listener. Node A's clients must keep completing
// batches within their deadline (peer RPC timeout -> backend fallback), the
// per-peer breaker must trip within its consecutive-failure threshold and
// then fail fast, and once the stall lifts a half-open probe must re-close
// the breaker and restore peer serving. The per-sample ledger stays exact
// throughout (retry-free clients, so offered == accounted).
func TestChaosOverloadDelayedPeer(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosDelayedPeer(t, seed) })
	}
}

func chaosDelayedPeer(t *testing.T, seed int64) {
	leakcheck.Check(t)
	spec := testSpec()
	const (
		peerTimeout = 60 * time.Millisecond
		brkCooldown = 80 * time.Millisecond
		brkThresh   = 2
		maxRounds   = 12
		stall       = 150 * time.Millisecond
	)
	batch := 6 + int(seed%5) // seed-varied batch shape

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	stallGate := &slowGate{}
	var nodes [2]*Server
	var addrs [2]string
	var lns [2]net.Listener
	var sources [2]*storage.DataSource
	for n := 0; n < 2; n++ {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			t.Fatal(err)
		}
		cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), seed+int64(n))
		if err != nil {
			t.Fatal(err)
		}
		sources[n], err = storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		nodes[n] = NewServer(cacheSrv, sources[n])
		nodes[n].Logf = nil
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(dirLn.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): addrs[1-n]}
		nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		ln := lns[n]
		if n == 1 {
			ln = slowListener{Listener: ln, g: stallGate} // node B is the delay-faulted peer
		}
		go nodes[n].Serve(ln)
	}
	nodes[0].SetPeerConfig(PeerConfig{
		Batch:            256,
		RPCTimeout:       peerTimeout,
		BreakerThreshold: brkThresh,
		BreakerCooldown:  brkCooldown,
	})
	t.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})

	// Pin a pool of ids as H-samples on both nodes (delivery must be exact,
	// never substituted), then warm node B so it owns the pool in the
	// directory. 2*maxRounds round-slices so no id is ever re-requested —
	// every round forces fresh remote misses on A.
	pool := make([]dataset.SampleID, 2*maxRounds*batch)
	items := make([]sampling.Item, len(pool))
	for i := range pool {
		pool[i] = dataset.SampleID(i)
		items[i] = sampling.Item{ID: pool[i], IV: 5}
	}
	cB := dial(t, addrs[1])
	if err := cB.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.GetBatch(pool); err != nil {
		t.Fatal(err)
	}
	waitOwned := func(id dataset.SampleID) {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if owner, ok := dir.Lookup(id); ok && owner == 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("id %d never claimed by node B", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, id := range pool {
		waitOwned(id)
	}

	cA, err := DialConfigured(addrs[0], DialConfig{Timeout: time.Second, Policy: noRetryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cA.Close() })
	if err := cA.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}

	next := 0
	offered := int64(0)
	round := func(wantMaxElapsed time.Duration) {
		t.Helper()
		ids := pool[next*batch : (next+1)*batch]
		next++
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		start := time.Now()
		samples, err := cA.GetBatchCtx(ctx, ids)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("round %d failed under peer stall (fallback should absorb it): %v", next, err)
		}
		if elapsed > wantMaxElapsed {
			t.Fatalf("round %d took %s, deadline model allows %s", next, elapsed, wantMaxElapsed)
		}
		offered += int64(len(ids))
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("round %d: H-sample %d substituted with %d", next, ids[i], s.ID)
			}
			if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("round %d: corrupt payload: %v", next, err)
			}
		}
	}

	// Phase 1 — stall on. Every batch must still complete, bounded by the
	// peer RPC timeout plus the backend fallback, and the breaker must trip
	// within its consecutive-failure threshold.
	stallGate.set(stall)
	tripRounds := 0
	for r := 0; r < maxRounds; r++ {
		round(2 * time.Second)
		tripRounds++
		if bs := nodes[0].PeerBreakerStats()[1]; bs.Trips >= 1 {
			break
		}
	}
	bs := nodes[0].PeerBreakerStats()[1]
	if bs.Trips < 1 {
		t.Fatalf("breaker never tripped after %d stalled rounds: %+v", tripRounds, bs)
	}
	// One RPC per round against a threshold of brkThresh consecutive
	// failures: the trip must land within threshold(+1 for the slow dial
	// ping round) rounds, not "eventually".
	if tripRounds > brkThresh+1 {
		t.Fatalf("breaker tripped only after %d rounds (threshold %d)", tripRounds, brkThresh)
	}
	backendBefore := sources[0].Reads()
	round(2 * time.Second) // open breaker: fail fast straight to backend
	if ff := nodes[0].PeerBreakerStats()[1].FastFails; ff < 1 {
		t.Fatalf("open breaker recorded no fast-fails")
	}
	if sources[0].Reads() == backendBefore {
		t.Fatal("fast-failed batch did not fall back to the backend")
	}
	if pf, _ := nodes[0].ResilienceStats(); pf == 0 {
		t.Fatal("stalled peer RPCs were not counted as peer failures")
	}

	// Phase 2 — stall off. After the cooldown, a single half-open probe must
	// re-close the breaker and peer serving must resume.
	stallGate.set(0)
	time.Sleep(brkCooldown + 40*time.Millisecond)
	recovered := false
	for r := 0; r < maxRounds; r++ {
		round(2 * time.Second)
		if bs := nodes[0].PeerBreakerStats()[1]; bs.Recoveries >= 1 {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	bs = nodes[0].PeerBreakerStats()[1]
	if !recovered {
		t.Fatalf("breaker never recovered after the stall lifted: %+v", bs)
	}
	if bs.State != overload.BreakerClosed {
		t.Fatalf("breaker state %v after recovery, want closed", bs.State)
	}
	if _, hits := nodes[0].PeerStats(); hits == 0 {
		t.Fatal("no peer hits after recovery — the half-open probe result was wasted")
	}

	// Conservation, exact: retry-free clients mean every offered id is
	// accounted exactly once across hits/misses/substitutions/degraded plus
	// the overload rejections (none expected here — A absorbed the fault).
	nodes[0].policyMu.Lock()
	st := nodes[0].cache.Stats()
	nodes[0].policyMu.Unlock()
	shed, expired := nodes[0].OverloadCounters()
	if got := st.Hits + st.Misses + st.Substitutions + st.Degraded + shed + expired; got != offered {
		t.Fatalf("ledger: hits(%d)+misses(%d)+subs(%d)+degraded(%d)+shed(%d)+expired(%d) = %d, want offered %d",
			st.Hits, st.Misses, st.Substitutions, st.Degraded, shed, expired, got, offered)
	}
	requireStoreWithinResidents(t, nodes[0])
	requireStoreWithinResidents(t, nodes[1])
}
