package rpc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/obs"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/trace"
	"icache/internal/transport/transporttest"
)

// slowSource wraps a ByteSource with a fixed per-fetch service time,
// standing in for a congested PFS backend. It makes the miss path the
// bottleneck, which is exactly what the concurrent-serving benchmark needs
// to expose lock serialization: under a single global server lock, backend
// fetches cannot overlap, so adding clients adds no throughput.
type slowSource struct {
	inner   ByteSource
	latency time.Duration
	fetches int64
}

func (s *slowSource) Spec() dataset.Spec { return s.inner.Spec() }

func (s *slowSource) Fetch(id dataset.SampleID) ([]byte, error) {
	atomic.AddInt64(&s.fetches, 1)
	time.Sleep(s.latency)
	return s.inner.Fetch(id)
}

// benchServer builds a serving stack sized for a miss-heavy workload: no
// L-cache (every L-routed request goes to the backend), a deliberately slow
// byte source, and a small payload footprint so byte copies do not mask
// lock behavior.
func benchServer(b *testing.B, backendLatency time.Duration) (*Server, string, *slowSource) {
	b.Helper()
	spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		b.Fatal(err)
	}
	cfg := icache.DefaultConfig(spec.TotalBytes() / 10)
	cfg.EnableLCache = false // miss-heavy: uncached L-requests hit storage
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
	if err != nil {
		b.Fatal(err)
	}
	inner, err := storage.NewDataSource(spec)
	if err != nil {
		b.Fatal(err)
	}
	src := &slowSource{inner: inner, latency: backendLatency}
	srv := NewServer(cacheSrv, src)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), src
}

// BenchmarkServeConcurrent measures end-to-end serving throughput against
// client count on a miss-heavy workload (every sample fetch pays a 200µs
// backend service time). One benchmark iteration is one GetBatch of
// batchSize samples; the reported samples/sec metric is the headline
// number. With the serving path properly parallel, throughput should scale
// with clients until the backend or the NIC saturates; a global server
// lock pins it flat.
func BenchmarkServeConcurrent(b *testing.B) {
	const (
		batchSize      = 16
		backendLatency = 200 * time.Microsecond
	)
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr, _ := benchServer(b, backendLatency)
			spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*1299709 + 1))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(spec.NumSamples))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
			}
		})
	}
}

// BenchmarkMissGather is the miss path's layer microbenchmark: one request
// goroutine calls getBatchPinned (policy verdict + the miss collector, no
// wire) with a batch in which EVERY sample is a backend miss, against a byte
// source charging a fixed latency per read. ms/batch against misses ×
// latency shows what the gather hides (64 misses at 500µs: 64 latencies
// serially, ⌈64/backendReadBudget⌉ gathered); the zero-latency rows and the 1-miss
// rows price its overhead — worker 0 is the request goroutine, so one miss
// must cost what a serial loop would.
func BenchmarkMissGather(b *testing.B) {
	for _, latency := range []time.Duration{0, 500 * time.Microsecond} {
		for _, misses := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("misses=%d/latency=%s", misses, latency), func(b *testing.B) {
				srv, _, src := benchServer(b, latency)
				n := src.Spec().NumSamples
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc := getServeScratch()
					sc.ids = sc.ids[:0]
					for j := 0; j < misses; j++ {
						sc.ids = append(sc.ids, dataset.SampleID((i*misses+j)%n))
					}
					err := srv.getBatchPinned(sc, obs.TraceCtx{}, time.Time{})
					releaseScratch(sc)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got := atomic.LoadInt64(&src.fetches); got != int64(b.N*misses) {
					b.Fatalf("%d backend reads for %d requested samples: not an all-miss workload", got, b.N*misses)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/batch")
			})
		}
	}
}

// answerConn satisfies net.Conn over a sink that reports each complete
// response frame on answered — the serve-side benchmarks and allocation
// bounds drive the serving path against it so the measurement isolates
// serve-side work (no client, no loopback socket). A vectored answer arrives
// in several writes; the first carries the length prefix.
type answerConn struct {
	net.Conn
	owed     int // bytes of the current frame not yet written
	answered chan struct{}
}

func (c *answerConn) Write(p []byte) (int, error) {
	if c.owed == 0 {
		c.owed = 4 + int(binary.BigEndian.Uint32(p))
	}
	if c.owed -= len(p); c.owed == 0 {
		c.answered <- struct{}{}
	}
	return len(p), nil
}

// serveFrom returns a function that hands req to srv's frame handler the way
// a connection does — in a mux envelope, to one of the connection's dispatch
// workers — and waits for its answer. One connection serves every call; it
// is retired when the test ends.
func serveFrom(tb testing.TB, srv *Server, req []byte) func() {
	conn := &answerConn{answered: make(chan struct{}, 1)}
	cs := srv.t.NewConn(conn)
	tb.Cleanup(cs.Wait)
	frame := transporttest.MuxWrap(1, req)
	return func() {
		if err := srv.t.ServeFrame(cs, frame); err != nil {
			tb.Fatal(err)
		}
		<-conn.answered
	}
}

// BenchmarkServeHitPath measures the server-side cost of one pure-hit
// GetBatch from the frame handler down: envelope peel, admission-gate check,
// request decode, policy verdict, payload reads by reference, vectored framing,
// write. Run with -benchmem: the headline number is 0 allocs/op — a resident
// batch is served without a single heap allocation.
func BenchmarkServeHitPath(b *testing.B) {
	const (
		batchSize = 16
		hotSet    = 64
	)
	srv, addr, _ := benchServer(b, 0)

	var items []sampling.Item
	var hot []dataset.SampleID
	for id := dataset.SampleID(0); id < hotSet; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		hot = append(hot, id)
	}
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.UpdateImportance(items); err != nil {
		b.Fatal(err)
	}
	if _, err := c.GetBatch(hot); err != nil {
		b.Fatal(err)
	}

	ids := make([]dataset.SampleID, batchSize)
	rng := rand.New(rand.NewSource(17))
	for j := range ids {
		ids[j] = dataset.SampleID(rng.Intn(hotSet))
	}
	serve := serveFrom(b, srv, encodeGetBatchRequest(ids))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
	}
}

// BenchmarkRemoteReadPath is BenchmarkServeHitPath's counterpart for the
// §III-E path: one 16-id GetBatch through node B's frame handler with 12 ids
// read from node A over loopback (directory in process) and 4 local hits —
// the shape TestRemoteReadAllocBound bounds. B/op and allocs/op are
// process-wide: B's request path, its peer client and A's answer. The cold
// row forgets the remembered owners before every batch, so each asks the
// directory; the warm row routes by the answers B remembers. dir-lookups/op
// is the directory round trips per batch. Run by `make bench-layers`.
func BenchmarkRemoteReadPath(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold-memo"
		if warm {
			name = "warm-memo"
		}
		b.Run(name, func(b *testing.B) {
			srv, req, dir := remoteReadSetup(b)
			serve := serveRemoteRead(b, srv, req, warm)
			serve() // a warm row remembers from here on
			lb0 := atomic.LoadInt64(&dir.lookupBatches)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(float64(atomic.LoadInt64(&dir.lookupBatches)-lb0)/float64(b.N), "dir-lookups/op")
		})
	}
}

// BenchmarkShortSleep measures what a time.Sleep(500µs) costs in wall time —
// how the repository benchmark's backend charges a read (benchmark/
// decorators.go) — with every P idle and beside a goroutine that keeps one
// busy. An idle process wakes a short sleeper late (the poller's timeout has
// millisecond granularity), a busy one on time, so train_epochs reads better
// the more CPU the server burns; until its backend stops charging the timer's
// granularity, miss-side CPU savings cannot be judged on it (ROADMAP item 1).
// Run by `make bench-layers`.
func BenchmarkShortSleep(b *testing.B) {
	for _, busy := range []bool{false, true} {
		name := "idle"
		if busy {
			name = "beside-busy-goroutine"
		}
		b.Run(name, func(b *testing.B) {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for busy {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched() // a server's goroutines pass through the scheduler; a bare spin never runs a timer
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(500 * time.Microsecond)
			}
			b.StopTimer()
			close(stop)
			<-done
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/sleep")
		})
	}
}

// BenchmarkObsOverhead pins the cost of the observability layer on the
// concurrent serving path. Three configurations run the exact workload of
// BenchmarkServeConcurrent/clients=8:
//
//	off:    no registry, no tracer — the nil-recorder fast path. This must
//	        match BenchmarkServeConcurrent/clients=8 (it is the same code).
//	hists:  stage histograms armed (what -metrics-addr costs). Budget: the
//	        samples/sec delta vs off stays within ~3% — the gated
//	        time.Now() calls and striped histogram records are the only
//	        additions.
//	traced: histograms plus span recording with every request traced
//	        (1-in-1 sampling, far denser than any production -trace-sample
//	        setting), the worst case for envelope encode/decode cost. A
//	        traced request is served on the vectored path like any other,
//	        so this mode prices the envelope and the spans, not a second
//	        serve path.
//	armed:  the full decision-observability deployment — histograms, span
//	        tracing, the control-plane journal AND a 1s timeline ticker —
//	        i.e. what a production node runs with -metrics-addr and
//	        -trace-csv. Budget: within ~3% of traced, since the journal
//	        appends only on rare state transitions and the timeline
//	        collector runs once a second off the serving path.
//
// Run by `make bench-layers`.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		batchSize      = 16
		clients        = 8
		backendLatency = 200 * time.Microsecond
	)
	for _, mode := range []string{"off", "hists", "traced", "armed"} {
		b.Run(mode, func(b *testing.B) {
			srv, addr, _ := benchServer(b, backendLatency)
			spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

			var clientTrc *trace.Recorder
			var sampler *obs.Sampler
			switch mode {
			case "hists":
				srv.EnableObs(obs.NewRegistry(), nil)
			case "traced", "armed":
				srv.EnableObs(obs.NewRegistry(), trace.NewRecorder(1<<16))
				clientTrc = trace.NewRecorder(1 << 16)
				sampler = obs.NewSampler(1)
			}
			if mode == "armed" {
				srv.SetJournal(obs.NewJournal(1024))
				tl := obs.NewTimeline(600, srv.TimelinePoint)
				tlStop := make(chan struct{})
				go tl.Run(time.Second, tlStop)
				defer close(tlStop)
			}

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if clientTrc != nil {
					c.EnableObs(nil, clientTrc, sampler)
				}
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*1299709 + 1))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(spec.NumSamples))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
			}
		})
	}
}

// benchDistPair builds a two-node distributed deployment over loopback with
// a real TCP directory (round trips count here), mirroring startDistFixture
// at benchmark scale.
func benchDistPair(b *testing.B) ([2]*Server, [2]string) {
	b.Helper()
	spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 1024, Seed: 7}

	dir := dkv.NewDirectory()
	dirSrv := dkv.NewDirServer(dir)
	dirLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go dirSrv.Serve(dirLn)
	b.Cleanup(func() { dirSrv.Close() })

	var nodes [2]*Server
	var addrs [2]string
	var lns [2]net.Listener
	for n := 0; n < 2; n++ {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			b.Fatal(err)
		}
		c := icache.DefaultConfig(spec.TotalBytes() / 10)
		c.EnableLCache = false
		cacheSrv, err := icache.NewServer(back, c, sampling.DefaultIIS(), int64(n+11))
		if err != nil {
			b.Fatal(err)
		}
		source, err := storage.NewDataSource(spec)
		if err != nil {
			b.Fatal(err)
		}
		nodes[n] = NewServer(cacheSrv, source)
		nodes[n].Logf = nil
		lns[n], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[n] = lns[n].Addr().String()
	}
	for n := 0; n < 2; n++ {
		dirClient, err := dkv.DialDir(dirLn.Addr().String(), 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		peer := map[dkv.NodeID]string{dkv.NodeID(1 - n): addrs[1-n]}
		nodes[n].EnableDistributed(dkv.NodeID(n), dirClient, peer)
		go nodes[n].Serve(lns[n])
	}
	b.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})
	return nodes, addrs
}

// BenchmarkPeerHotSet drives the remote data plane: eight clients hammer node
// B with mini-batches drawn from a hot set that node A owns, so every request
// is a remote-owned miss (remote hits are never admitted locally — the
// no-duplication invariant keeps the set on A) and costs one directory
// multi-lookup and one opPeerGetBatch RPC, pipelined over the multiplexed
// peer connection. peer-rpcs/op reports the measured RPC amortization.
func BenchmarkPeerHotSet(b *testing.B) {
	const (
		batchSize = 16
		clients   = 8
		hotSet    = 64
	)
	nodes, addrs := benchDistPair(b)

	// Warm: node A fetches and claims the hot set; both nodes carry
	// the same H-list so node B serves the exact requested IDs.
	var items []sampling.Item
	var hot []dataset.SampleID
	for id := dataset.SampleID(0); id < hotSet; id++ {
		items = append(items, sampling.Item{ID: id, IV: 5})
		hot = append(hot, id)
	}
	cA, err := Dial(addrs[0], 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cA.Close()
	if err := cA.UpdateImportance(items); err != nil {
		b.Fatal(err)
	}
	if _, err := cA.GetBatch(hot); err != nil {
		b.Fatal(err)
	}

	conns := make([]*Client, clients)
	for i := range conns {
		c, err := Dial(addrs[1], 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	if err := conns[0].UpdateImportance(items); err != nil {
		b.Fatal(err)
	}

	rpcs0, _ := nodes[1].PeerBatchStats()
	b.ResetTimer()
	var next int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*6700417 + 9))
			ids := make([]dataset.SampleID, batchSize)
			for atomic.AddInt64(&next, 1) <= int64(b.N) {
				for j := range ids {
					ids[j] = dataset.SampleID(rng.Intn(hotSet))
				}
				if _, err := conns[i].GetBatch(ids); err != nil {
					errc <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
	}
	rpcs, _ := nodes[1].PeerBatchStats()
	b.ReportMetric(float64(rpcs-rpcs0)/float64(b.N), "peer-rpcs/op")
}

// BenchmarkServeHotSet is the coalescing stressor: all clients hammer a
// tiny id set, so concurrent misses on the same sample are the common
// case. With singleflight coalescing, K concurrent misses issue one
// backend read; without it they issue K.
func BenchmarkServeHotSet(b *testing.B) {
	const (
		batchSize      = 16
		hotSet         = 32
		backendLatency = 200 * time.Microsecond
	)
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, addr, src := benchServer(b, backendLatency)

			conns := make([]*Client, clients)
			for i := range conns {
				c, err := Dial(addr, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}

			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)*15485863 + 3))
					ids := make([]dataset.SampleID, batchSize)
					for atomic.AddInt64(&next, 1) <= int64(b.N) {
						for j := range ids {
							ids[j] = dataset.SampleID(rng.Intn(hotSet))
						}
						if _, err := conns[i].GetBatch(ids); err != nil {
							errc <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batchSize)/elapsed, "samples/sec")
				b.ReportMetric(float64(atomic.LoadInt64(&src.fetches))/float64(b.N*batchSize), "fetches/sample")
			}
		})
	}
}

// BenchmarkPackageDelivery times the one policyMu hold that lands an L-cache
// package (Server.deliver): insert every member into the L-cache, evict the
// oldest residents to make room (the observer deletes their bytes) and store
// the members' bytes. The spec and cache share are train_epochs', so a
// package is 41 members of 4 KiB and each delivery evicts about as many; the
// metric is ns per delivered member.
func BenchmarkPackageDelivery(b *testing.B) {
	spec := dataset.Spec{Name: "bench", NumSamples: 4096, MeanSampleBytes: 4096, Seed: 7}
	back, err := storage.NewBackend(spec, storage.OrangeFS())
	if err != nil {
		b.Fatal(err)
	}
	cacheSrv, err := icache.NewServer(back, icache.DefaultConfig(spec.TotalBytes()/5), sampling.DefaultIIS(), 11)
	if err != nil {
		b.Fatal(err)
	}
	src, err := storage.NewDataSource(spec)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(cacheSrv, src)
	b.Cleanup(func() { srv.Close() })
	const members = 41
	ids := make([]dataset.SampleID, spec.NumSamples/members*members)
	bufs := make([][]byte, len(ids))
	for i := range ids {
		ids[i] = dataset.SampleID(i)
		if bufs[i], err = src.Fetch(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k := n % (len(ids) / members) * members
		srv.deliver(&pkgLoad{ids: ids[k : k+members], bufs: bufs[k : k+members]})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*members), "ns/member")
	if engineView(srv).LLen == 0 {
		b.Fatal("no member was delivered")
	}
}

// BenchmarkPrefetchEpochs is the clairvoyant-prefetch gate (`make
// prefetch-smoke` runs it once, so `make all` does). Two identical servers
// take the same epoch-boundary workload (planEpochs: per-epoch reshuffled
// selections over a keyspace larger than the cache, backend charging real
// latency per read), one client crossing plain boundaries (no prefetch at
// all), one pushing the schedule ahead of its accesses (BeginEpochPlan). The
// first epoch is a cold baseline on both; from the second epoch on the plan
// should pre-place nearly the whole selection. The benchmark FAILS on any
// request error or an unbalanced prefetch ledger in either mode. It also
// fails unless warm-epoch cold misses drop >= 10x versus the plain run, the
// prefetch in-time ratio reaches 0.9, and the planned run's first epoch has
// cold misses and its last at most a fifth of them. The pool is the shipped
// one, a worker per read slot (EXPERIMENTS.md, "One prefetcher", has the
// 20-run table the in-time bound rests on). The headline samples/sec is the
// planned run's throughput at the shared offered rate: a plan that stops
// working ahead stalls the paced schedule and drags it down.
func BenchmarkPrefetchEpochs(b *testing.B) {
	spec := dataset.Spec{Name: "plan-epochs", NumSamples: 2048, MeanSampleBytes: 4096, Seed: 7}
	runMode := func(clairvoyant bool) (cold []int64, perSec float64, warm int64, inTime float64, ps PlanStats) {
		back, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			b.Fatal(err)
		}
		// All-H policy (L-cache off), capacity above one epoch's selection
		// but below the keyspace; the plan runs as an operator's server runs
		// it, paced by nothing but the read budget.
		cfg := icache.DefaultConfig(spec.TotalBytes() * 3 / 4)
		cfg.EnableLCache = false
		cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 11)
		if err != nil {
			b.Fatal(err)
		}
		inner, err := storage.NewDataSource(spec)
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(cacheSrv, &slowSource{inner: inner, latency: 300 * time.Microsecond})
		srv.Logf = nil
		cold, perSec, failed := planEpochs(b, serveOn(b, srv), clairvoyant)
		if failed > 0 {
			b.Fatalf("%d request errors (clairvoyant=%v)", failed, clairvoyant)
		}
		d := srv.DecisionStats()
		if got := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted + d.PrefetchDropped; got != d.PrefetchIssued {
			b.Fatalf("prefetch ledger unbalanced (clairvoyant=%v): in_time %d + late %d + wasted %d + dropped %d != issued %d",
				clairvoyant, d.PrefetchInTime, d.PrefetchLate, d.PrefetchWasted, d.PrefetchDropped, d.PrefetchIssued)
		}
		for _, m := range cold[1:] {
			warm += m
		}
		if denom := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted; denom > 0 {
			inTime = float64(d.PrefetchInTime) / float64(denom)
		}
		return cold, perSec, warm, inTime, srv.PlanStats()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, plainWarm, _, _ := runMode(false)
		cold, perSec, clairWarm, inTime, ps := runMode(true)
		if plainWarm == 0 {
			b.Fatalf("plain warm epochs saw no cold misses — the workload churn vanished")
		}
		if clairWarm*10 > plainWarm {
			b.Fatalf("warm-epoch cold misses only dropped %dx (plain %d, clairvoyant %d); want >= 10x",
				plainWarm/max(clairWarm, 1), plainWarm, clairWarm)
		}
		if inTime < 0.9 {
			b.Fatalf("prefetch in-time ratio %.3f < 0.9 (plan %+v)", inTime, ps)
		}
		if first, last := cold[0], cold[len(cold)-1]; first == 0 || last > first/5 {
			b.Fatalf("clairvoyant cold misses per epoch %v: want a cold first epoch and the last at most a fifth of it", cold)
		}
		if i == b.N-1 {
			b.ReportMetric(perSec, "samples/sec")
			b.ReportMetric(float64(clairWarm), "cold-misses")
			b.ReportMetric(inTime, "in-time-ratio")
		}
	}
}

// planEpochs drives BenchmarkPrefetchEpochs' workload against addr over
// eight connections for five epochs. Each epoch selects 768 of the 2048 ids
// (a seeded permutation, so successive selections overlap partially — the
// churn a cross-epoch prefetcher has to cover) and pushes them as an all-H
// list, earlier accesses more important. It crosses the boundary, planned
// from the second epoch on when clairvoyant, then fetches the selection
// once in order, 16-id batches rotating over the connections, paced
// open-loop at 20 000 samples/s. It returns each epoch's cold misses (the
// server's DemandFetches growth), the samples per second over the run, and
// the failed requests. A last plain boundary settles the prefetch ledger:
// the final plan's pending tokens sweep to wasted.
func planEpochs(b *testing.B, addr string, clairvoyant bool) (cold []int64, perSec float64, failed int) {
	const (
		keys, epochSamples, epochs = 2048, 768, 5
		conns, batch, rate         = 8, 16, 20000
	)
	cs := make([]*Client, conns)
	for i := range cs {
		c, err := Dial(addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	st, err := cs[0].Stats()
	if err != nil {
		b.Fatal(err)
	}
	base := st.DemandFetches
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	var samples int
	sink := func(got []Sample) error {
		samples += len(got)
		return nil
	}
	start := time.Now()
	for e := 0; e < epochs; e++ {
		perm := rand.New(rand.NewSource(3 + int64(e))).Perm(keys)[:epochSamples]
		sched := make([]dataset.SampleID, len(perm))
		items := make([]sampling.Item, len(perm))
		for i, id := range perm {
			sched[i] = dataset.SampleID(id)
			items[i] = sampling.Item{ID: sched[i], IV: float64(len(perm) - i)}
		}
		if err := cs[0].UpdateImportance(items); err != nil {
			b.Fatal(err)
		}
		if clairvoyant && e > 0 {
			err = cs[0].BeginEpochPlan(e+1, sched)
		} else {
			err = cs[0].BeginEpoch(e + 1)
		}
		if err != nil {
			b.Fatal(err)
		}
		epochStart := time.Now()
		for k := 0; k*batch < len(sched); k++ {
			time.Sleep(time.Until(epochStart.Add(interval * time.Duration(k))))
			if err := cs[k%conns].GetBatchFunc(sched[k*batch:min((k+1)*batch, len(sched))], sink); err != nil {
				failed++
			}
		}
		if st, err = cs[0].Stats(); err != nil {
			b.Fatal(err)
		}
		cold = append(cold, st.DemandFetches-base)
		base = st.DemandFetches
	}
	if err := cs[0].BeginEpoch(epochs + 1); err != nil {
		b.Fatal(err)
	}
	return cold, float64(samples) / time.Since(start).Seconds(), failed
}
