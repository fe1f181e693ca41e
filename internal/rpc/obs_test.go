package rpc

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/top"
	"icache/internal/trace"
	"icache/internal/vt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// startObsServer is startServer with the observability layer armed before
// Serve: per-stage histograms and span tracing.
func startObsServer(t *testing.T) (*Server, string, *obs.Registry, *trace.Recorder) {
	t.Helper()
	srv := newUnstartedServer(t, nil)
	reg := obs.NewRegistry()
	tracer := trace.NewRecorder(1 << 14)
	srv.EnableObs(reg, tracer)
	return srv, serveOn(t, srv), reg, tracer
}

// hotIDs pushes ids 0..n-1 as H-samples through c and returns them.
func hotIDs(t *testing.T, c *Client, n int) []dataset.SampleID {
	t.Helper()
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < dataset.SampleID(n); id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestPrometheusExposition drives traffic through an obs-enabled server
// and scrapes /metrics, and another path with a query, which the handler
// ignores: every stats family must render, the per-stage histograms must
// appear, and the values must agree with the typed snapshot taken in the
// same breath.
func TestPrometheusExposition(t *testing.T) {
	srv, addr, _, _ := startObsServer(t)
	c := dial(t, addr)
	ids := hotIDs(t, c, 32)
	for i := 0; i < 3; i++ {
		if _, err := c.GetBatch(ids); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	var text string
	for _, path := range []string{"/metrics", "/?format=prom"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: content type %q", path, ct)
		}
		text = string(body)
	}

	// Every flat series' name, HELP and TYPE: TestPrometheusExpositionHeaders.

	// The serving path registers its stage histograms up front; at least
	// these must expose buckets, sum/count, and quantile companions.
	stages := []string{
		StageRequest, StagePolicyLockHold, StageLocalHit, StageSingleflightWait,
		StageBackendFetch, StagePeerRPCBatch, StageDirLookupBatch, StagePrefetchQueueWait,
		StageSubstitutionScan,
	}
	for _, st := range stages {
		base := "icache_stage_" + st + "_seconds"
		if !strings.Contains(text, base+"_bucket{le=\"+Inf\"}") {
			t.Errorf("missing histogram buckets for stage %s", st)
		}
		if !strings.Contains(text, base+"_count") || !strings.Contains(text, "icache_stage_"+st+"_p99_seconds") {
			t.Errorf("missing count/quantiles for stage %s", st)
		}
	}

	// Values agree with the typed snapshot (counters only move forward, and
	// no traffic runs between the scrape and this snapshot).
	m := srv.Metrics()
	if m.Hits == 0 {
		t.Fatal("no hits recorded; traffic did not run")
	}
	wantLine := "icache_cache_hits_total " + strconv.FormatInt(m.Hits, 10)
	if !strings.Contains(text, wantLine) {
		t.Errorf("exposition lacks %q", wantLine)
	}

	// The stage histograms actually recorded the traffic.
	reqLine := "icache_stage_request_seconds_count "
	i := strings.Index(text, reqLine)
	if i < 0 {
		t.Fatal("no request stage count")
	}
	rest := text[i+len(reqLine):]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	if rest == "0" {
		t.Fatal("request stage histogram never recorded")
	}
}

// scrape parses one exposition of srv into name→value.
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, _ := top.ParseProm(&buf) // a bytes.Buffer read cannot fail
	return m
}

// TestPrometheusExpositionHeaders pins every series' name, HELP text, TYPE
// and position: the exposition's comment lines, values excluded, against a
// golden generated at the commit before the series table existed. Run with
// -update after adding a row.
func TestPrometheusExpositionHeaders(t *testing.T) {
	srv, _, _, _ := startObsServer(t)
	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := bytes.Join(regexp.MustCompile(`(?m)^#.*\n`).FindAll(buf.Bytes(), -1), nil)
	path := filepath.Join("testdata", "exposition_headers.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("exposition headers differ from golden (%v).\ngot:\n%s\nwant:\n%s", err, got, want)
	}
}

// TestPrometheusExpositionAddsUpUnderLoad scrapes beside evicting GetBatch
// traffic: the view is gathered under one policyMu hold, so within every
// scrape requests equal their three outcome classes, the eviction total its
// reasons, and the cache family's evictions the ledger's capacity evictions.
// Every sample is an H-sample, several times more than the cache holds, and
// their importance rotates while the traffic runs: each rotation makes
// samples the cache does not hold outrank its residents, so misses keep
// being admitted over them until the last scrape. The traffic never pauses,
// so the scrapes start at an event: the first eviction a worker sees.
func TestPrometheusExpositionAddsUpUnderLoad(t *testing.T) {
	srv, addr, _ := startServer(t)
	stop, evicted := make(chan struct{}), make(chan struct{})
	var evictedOnce sync.Once
	var wg sync.WaitGroup
	ctl, n := dial(t, addr), testSpec().NumSamples
	rotate := func(shift int) error {
		items := make([]sampling.Item, n)
		for i := range items {
			items[i] = sampling.Item{ID: dataset.SampleID(i), IV: float64(1 + (i+shift)%n)}
		}
		return ctl.UpdateImportance(items)
	}
	if err := rotate(0); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for shift := 97; ; shift += 97 {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := rotate(shift); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(base dataset.SampleID) {
			defer wg.Done()
			for i := dataset.SampleID(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (base + i*16) % 1984
				if _, err := c.GetBatch([]dataset.SampleID{id, id + 3, id + 7, id + 11, id + 13}); err != nil {
					t.Error(err)
					return
				}
				if srv.DecisionStats().EvictTotal > 0 {
					evictedOnce.Do(func() { close(evicted) })
				}
			}
		}(dataset.SampleID(w * 640))
	}
	select { // the scrapes below must run beside evicting traffic
	case <-evicted:
	case <-time.After(10 * time.Second):
		t.Fatal("traffic evicted nothing in 10s")
	}
	first := scrape(t, srv)["icache_evict_reasoned_total"]
	var m map[string]float64
	for i := 0; i < 60; i++ {
		m = scrape(t, srv)
		if sum := m["icache_cache_hits_total"] + m["icache_cache_misses_total"] + m["icache_cache_substitutions_total"]; sum != m["icache_cache_requests_total"] {
			t.Errorf("scrape %d: outcome classes sum to %g, requests %g", i, sum, m["icache_cache_requests_total"])
		}
		if sum := m["icache_evict_capacity_total"] + m["icache_evict_dead_owner_total"] + m["icache_evict_scrub_total"] + m["icache_evict_checkpoint_denied_total"] + m["icache_evict_dir_unavailable_total"]; sum != m["icache_evict_reasoned_total"] {
			t.Errorf("scrape %d: eviction reasons sum to %g, total %g", i, sum, m["icache_evict_reasoned_total"])
		}
		if m["icache_cache_evictions_total"] != m["icache_evict_capacity_total"] {
			t.Errorf("scrape %d: cache evictions %g, capacity evictions %g", i, m["icache_cache_evictions_total"], m["icache_evict_capacity_total"])
		}
	}
	if m["icache_evict_reasoned_total"] == first {
		t.Errorf("the scrapes ran beside no eviction (%g before and after)", first)
	}
	close(stop)
	wg.Wait()
}

// startTracedDistFixture is the two-node distributed fixture with the
// observability layer armed on both nodes and the directory server. When
// inj is non-nil, node 0's cache listener is wrapped with the injector, so
// node 1's peer reads toward node 0 hit connection faults. dialDir makes
// each node's directory service (nil: a plain DirClient).
type tracedDistFixture struct {
	*distFixture
	tracers [2]*trace.Recorder
	dirTrc  *trace.Recorder
	dirSrv  *dkv.DirServer
}

func startTracedDistFixture(t *testing.T, inj *faults.Injector, dialDir func(addr string) (dkv.Service, error)) *tracedDistFixture {
	t.Helper()
	spec := testSpec()

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirTrc := trace.NewRecorder(1 << 14)
	dirSrv.EnableObs(obs.NewRegistry(), dirTrc)
	dirLn := listen(t)
	go dirSrv.Serve(dirLn)
	t.Cleanup(func() { dirSrv.Close() })

	f := &tracedDistFixture{distFixture: &distFixture{dirAddr: dirLn.Addr().String()}, dirTrc: dirTrc, dirSrv: dirSrv}
	if dialDir == nil {
		dialDir = func(addr string) (dkv.Service, error) { return dkv.DialDir(addr, time.Second) }
	}
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		source, err := storage.NewDataSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.sources[n] = source
		f.nodes[n] = newSeededServer(t, int64(n+5), source)
		f.tracers[n] = trace.NewRecorder(1 << 14)
		f.nodes[n].EnableObs(obs.NewRegistry(), f.tracers[n])
		lns[n] = listen(t)
		f.addrs[n] = lns[n].Addr().String()
	}
	if inj != nil {
		lns[0] = faults.WrapListener(lns[0], inj)
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dialDir(f.dirAddr)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := dirClient.(io.Closer); ok {
			t.Cleanup(func() { c.Close() })
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): f.addrs[1-n]}
		f.nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		go f.nodes[n].Serve(lns[n])
	}
	t.Cleanup(func() {
		f.nodes[0].Close()
		f.nodes[1].Close()
	})
	return f
}

// allSpans merges the span events recorded by every participant: the
// training client, both cache nodes, and the directory server — exactly
// what an operator does by concatenating the processes' trace CSVs.
func (f *tracedDistFixture) allSpans(client *trace.Recorder) []trace.Event {
	events := client.Snapshot()
	events = append(events, f.tracers[0].Snapshot()...)
	events = append(events, f.tracers[1].Snapshot()...)
	events = append(events, f.dirTrc.Snapshot()...)
	return events
}

// TestTracedRequestFullHopChain runs a traced GetBatch whose samples live
// on the *other* node: client (hop 0) → node 1 (hop 1) → directory and
// peer node 0 (hop 2). Merging every participant's ring must reconstruct
// the full chain.
func TestTracedRequestFullHopChain(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		f := startTracedDistFixture(t, nil, nil)

		cA := dial(t, f.addrs[0])
		cB := dial(t, f.addrs[1])
		ids := hotIDs(t, cA, 12)
		hotIDs(t, cB, 12) // same H-list on node 1, so serving is exact
		// Node 0 fetches and claims the samples.
		if _, err := cA.GetBatch(ids); err != nil {
			t.Fatal(err)
		}

		// Trace every request from this client.
		clientTrc := trace.NewRecorder(1 << 12)
		cB.EnableObs(nil, clientTrc, obs.NewSampler(1))
		samples, err := cB.GetBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("H-sample %d substituted", ids[i])
			}
		}
		if _, hits := f.nodes[1].PeerStats(); hits == 0 {
			t.Fatal("node 1 recorded no peer hits; the chain under test did not happen")
		}

		// At least one chain must span all three hops with the expected kinds.
		// Node 1 records its own recv span after it has written the response, so
		// the client can get here first: read the spans at a quiet point.
		vt.Wait()
		chains := trace.Chains(f.allSpans(clientTrc))
		var full *trace.Chain
		for _, ch := range chains {
			hops := map[uint8]map[trace.Kind]int{}
			for _, sp := range ch.Spans {
				if hops[sp.Hop] == nil {
					hops[sp.Hop] = map[trace.Kind]int{}
				}
				hops[sp.Hop][sp.Kind]++
			}
			if hops[0][trace.KindRPCSend] >= 1 &&
				hops[1][trace.KindRPCRecv] >= 1 &&
				hops[1][trace.KindRPCSend] >= 2 && // directory lookup + peer read
				hops[2][trace.KindRPCRecv] >= 2 { // directory serve + peer serve
				full = ch
				break
			}
		}
		if len(chains) == 0 {
			t.Fatal("no trace chains reconstructed")
		}
		if full == nil {
			for _, ch := range chains {
				t.Logf("chain %016x: %d spans", ch.TraceID, len(ch.Spans))
				for _, sp := range ch.Spans {
					t.Logf("  hop %d %s arg=%d dur=%s", sp.Hop, sp.Kind, sp.Arg, sp.Dur)
				}
			}
			t.Fatal("no chain reconstructs client -> node -> {directory, peer}")
		}
		// Every span carries the chain's trace ID (Chains groups by ID, so
		// corruption would have splintered the chain instead; assert the root
		// duration is sane: the client round trip bounds every inner span).
		for _, sp := range full.Spans {
			if sp.TraceID != full.TraceID {
				t.Fatalf("span trace ID %016x in chain %016x", sp.TraceID, full.TraceID)
			}
			if sp.Hop > 0 && sp.Dur > 2*full.Root+time.Second {
				t.Fatalf("inner span dur %s exceeds root %s beyond tolerance", sp.Dur, full.Root)
			}
		}
	})
}

// TestTracedChainSurvivesPeerFault injects connection faults on the peer
// owner's listener: peer reads from node 1 fail and degrade to backend
// reads, but (a) every requested sample is still served exactly —
// conservation — and (b) the spans that were recorded still form coherent
// chains: no fault may corrupt or cross-wire a trace context.
func TestTracedChainSurvivesPeerFault(t *testing.T) {
	// One read per request frame on the owner's connections: every fourth
	// kills its connection (see TestChaosMidBatchPeerDropConservation).
	inj := faults.New(17).Add(faults.DropEvery(faults.OpConnRead, 4))
	f := startTracedDistFixture(t, inj, nil)

	cA := dial(t, f.addrs[0])
	cB := dial(t, f.addrs[1])
	ids := hotIDs(t, cA, 16)
	hotIDs(t, cB, 16) // same H-list on node 1, so serving is exact
	if _, err := cA.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	clientTrc := trace.NewRecorder(1 << 12)
	cB.EnableObs(nil, clientTrc, obs.NewSampler(1))
	for round := 0; round < 4; round++ {
		samples, err := cB.GetBatch(ids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(samples) != len(ids) {
			t.Fatalf("round %d: served %d of %d", round, len(samples), len(ids))
		}
		for i, s := range samples {
			if s.ID != ids[i] {
				t.Fatalf("round %d: H-sample %d substituted", round, ids[i])
			}
			if err := testSpec().VerifyPayload(s.ID, s.Payload); err != nil {
				t.Fatalf("round %d: corrupt payload: %v", round, err)
			}
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("fault rules never fired")
	}

	// Conservation on the serving node: every request fell into exactly
	// one outcome class.
	f.nodes[1].policyMu.Lock()
	st := f.nodes[1].cache.Stats()
	f.nodes[1].policyMu.Unlock()
	if got, want := st.Hits+st.Misses+st.Substitutions, st.Requests(); got != want {
		t.Fatalf("outcome classes sum to %d, Requests() = %d", got, want)
	}
	if st.Requests() == 0 {
		t.Fatal("node 1 recorded no requests")
	}

	// Chains must stay coherent: hop 0 always has the client send span,
	// hop 1 the serve span, and no chain mixes trace IDs (Chains groups by
	// ID — a corrupted ID would orphan spans into junk chains whose hop
	// structure breaks the invariants below).
	chains := trace.Chains(f.allSpans(clientTrc))
	if len(chains) == 0 {
		t.Fatal("no chains under fault")
	}
	clientIDs := map[uint64]bool{}
	for _, sp := range clientTrc.Snapshot() {
		clientIDs[sp.TraceID] = true
	}
	for _, ch := range chains {
		if !clientIDs[ch.TraceID] {
			t.Fatalf("chain %016x does not correspond to any client-issued trace", ch.TraceID)
		}
		for _, sp := range ch.Spans {
			if sp.TraceID != ch.TraceID {
				t.Fatalf("span trace ID %016x inside chain %016x", sp.TraceID, ch.TraceID)
			}
			if !sp.Kind.IsSpan() {
				t.Fatalf("non-span event %v leaked into chain %016x", sp.Kind, ch.TraceID)
			}
		}
	}
}

// lateDir is a node's directory service that dawdles: it forwards a batched
// lookup only once the request's deadline has passed, the way a node that
// was descheduled between admitting a request and asking the directory
// would. first receives the first forwarded lookup's error.
type lateDir struct {
	dkv.Service
	ctx   dkv.CtxService
	first chan error
}

func (d *lateDir) LookupBatchCtx(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) ([]dkv.Owner, error) {
	if !dl.IsZero() {
		time.Sleep(time.Until(dl) + time.Millisecond)
	}
	owners, err := d.ctx.LookupBatchCtx(ids, ctx, dl)
	select {
	case d.first <- err:
	default:
	}
	return owners, err
}

// TestTracedDeadlinedGetBatchCtx: a deadlined GetBatchCtx from a traced
// client reaches the server inside both envelopes — the server records its
// rpc_recv span under the client's trace id at hop 1 and the budget it was
// handed — and is answered whole.
func TestTracedDeadlinedGetBatchCtx(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		_, addr, reg, srvTrc := startObsServer(t)
		c := dial(t, addr)
		clientTrc := trace.NewRecorder(1 << 10)
		c.EnableObs(nil, clientTrc, obs.NewSampler(1))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		ids := []dataset.SampleID{3, 4, 5}
		if samples, err := c.GetBatchCtx(ctx, ids); err != nil || len(samples) != len(ids) {
			t.Fatalf("GetBatchCtx: %d samples, %v; want %d", len(samples), err, len(ids))
		}
		var traceID uint64
		for _, ev := range clientTrc.Snapshot() {
			if ev.Kind == trace.KindRPCSend {
				traceID = ev.TraceID
			}
		}
		var recv []trace.Event
		vt.Wait() // the server records its span after it has answered
		for _, ev := range srvTrc.Snapshot() {
			if ev.Kind == trace.KindRPCRecv && ev.TraceID == traceID {
				recv = append(recv, ev)
			}
		}
		if traceID == 0 || len(recv) != 1 || recv[0].Hop != 1 {
			t.Fatalf("server rpc_recv spans under trace %x = %+v, want one at hop 1", traceID, recv)
		}
		if n := reg.Hist(StageDeadlineRemaining).Snapshot().Count; n != 1 {
			t.Fatalf("server recorded %d deadline budgets, want the request's one", n)
		}
	})
}

// TestTracedDeadlineReachesDirectory: a traced GetBatchCtx keeps BOTH its
// envelopes on the directory hop. The node here spends the request's whole
// budget before it asks the directory, so the lookup must arrive with its
// trace context — the directory records an rpc_recv span at hop 2 under the
// client's trace id — AND with its (spent) budget — the directory drops it,
// StatusExpired, and counts it. When the lookup took the traced branch OR
// the deadline branch, the span appeared and the expiry never did. Through a
// single DirClient and through a ShardedDir (which used to forward no
// deadline at all, and must not fail a replica over for answering "too
// late"). In a bubble the directory's clock has not moved since the node
// sent the spent budget, so the lookup expires on the budget alone.
func TestTracedDeadlineReachesDirectory(t *testing.T) {
	for _, tc := range []struct {
		name string
		dial func(addr string) (dkv.Service, error)
	}{
		{"DirClient", func(addr string) (dkv.Service, error) { return dkv.DialDir(addr, time.Second) }},
		{"ShardedDir", func(addr string) (dkv.Service, error) {
			return dkv.DialSharded([]string{addr}, dkv.DialConfig{Timeout: time.Second}, dkv.ShardedConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inBubble(t, func(t *testing.T) {
				var late [2]*lateDir
				n := 0
				f := startTracedDistFixture(t, nil, func(addr string) (dkv.Service, error) {
					svc, err := tc.dial(addr)
					if err != nil {
						return nil, err
					}
					late[n] = &lateDir{Service: svc, ctx: svc.(dkv.CtxService), first: make(chan error, 1)}
					n++
					return late[n-1], nil
				})
				cB := dial(t, f.addrs[1])
				ids := hotIDs(t, cB, 8)
				clientTrc := trace.NewRecorder(1 << 10)
				cB.EnableObs(nil, clientTrc, obs.NewSampler(1))

				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				if _, err := cB.GetBatchCtx(ctx, ids); !errors.Is(err, ErrDeadlineExceeded) {
					t.Fatalf("GetBatchCtx through a node that spends the whole budget: %v, want ErrDeadlineExceeded", err)
				}
				var lookupErr error
				select {
				case lookupErr = <-late[1].first:
				case <-time.After(5 * time.Second):
					t.Fatal("node 1 never asked the directory")
				}
				if !errors.Is(lookupErr, ErrDeadlineExceeded) {
					t.Fatalf("directory lookup with a spent budget: %v, want a deadline error", lookupErr)
				}
				var traceID uint64
				for _, ev := range clientTrc.Snapshot() {
					if ev.Kind == trace.KindRPCSend {
						traceID = ev.TraceID
					}
				}
				vt.Wait() // the directory has served every request it was sent
				if sd, ok := late[1].Service.(*dkv.ShardedDir); ok {
					if st := sd.Ring(); st.Failovers != 0 {
						t.Fatalf("a replica that answered \"too late\" was failed over: %+v", st)
					}
				}
				var recv []trace.Event
				for _, ev := range f.dirTrc.Snapshot() {
					if ev.Kind == trace.KindRPCRecv && ev.TraceID == traceID {
						recv = append(recv, ev)
					}
				}
				if traceID == 0 || len(recv) != 1 || recv[0].Hop != 2 {
					t.Fatalf("directory rpc_recv spans under trace %x = %+v, want one at hop 2", traceID, recv)
				}
				if _, expired := f.dirSrv.OverloadCounters(); expired != 1 {
					t.Fatalf("directory dropped %d requests as expired, want the one lookup", expired)
				}
			})
		})
	}
}
