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
