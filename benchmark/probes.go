package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/impheap"
	"icache/internal/overload"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/singleflight"
	"icache/internal/storage"
	"icache/internal/wire"
)

// A probe is a timed loop over one layer's exported functions, with the
// shapes the workloads use, run beside the traced run. It gives each layer
// a cost that does not depend on the others, so a change in an end-to-end
// number can be set against the layer that was edited.

// probeBudget is how long one probe measures.
var probeBudget = 60 * time.Millisecond

// timeOps runs chunk(n) repeatedly for about probeBudget and returns the
// median nanoseconds per operation over the chunks, which sheds the chunks
// a scheduler preemption landed in.
func timeOps(n int, chunk func(n int)) float64 {
	chunk(n) // warm caches and pools
	var per []float64
	for start := time.Now(); time.Since(start) < probeBudget || len(per) < 3; {
		t0 := time.Now()
		chunk(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// timeOps2 is timeOps with two goroutines running chunk side by side; it
// returns nanoseconds per operation as each goroutine sees them.
func timeOps2(n int, chunk func(n int)) float64 {
	return timeOps(n, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunk(n)
			}()
		}
		wg.Wait()
	})
}

// Probe shapes, taken from the workloads: hit_storm's response and hot set,
// peer_churn's H-list and H-capacity, 4 KiB samples elsewhere.
const (
	probeBatch     = 16
	probeHot       = 64
	probeHotBytes  = 16 << 10
	probeHList     = 1024
	probeResidents = 512
	probeBytes     = 4096
)

func runProbes(out map[string]float64) error {
	probeWire(out)
	if err := probePolicy(out); err != nil {
		return fmt.Errorf("icache probe: %w", err)
	}
	if err := probeHeap(out); err != nil {
		return fmt.Errorf("impheap probe: %w", err)
	}
	probeSingleflight(out)
	probeGate(out)
	if err := probeDirectory(out); err != nil {
		return fmt.Errorf("dkv probe: %w", err)
	}
	return probeData(out)
}

// probeWire frames and parses one hit_storm response.
func probeWire(out map[string]float64) {
	payload := bytes.Repeat([]byte{0xA5}, probeHotBytes)
	build := func(v *wire.Vec) {
		v.U8(0)
		v.U32(probeBatch)
		for i := 0; i < probeBatch; i++ {
			v.I64(int64(i))
			v.U32(uint32(len(payload)))
			v.Payload(payload)
		}
	}
	out["wire.encode_batch_us"] = us(timeOps(64, func(n int) {
		for i := 0; i < n; i++ {
			v := wire.GetVec()
			build(v)
			v.WriteTo(io.Discard) // io.Discard cannot fail
			wire.PutVec(v)
		}
	}))

	v := wire.GetVec()
	build(v)
	frame := v.AppendFlat(nil)
	wire.PutVec(v)
	var buf []byte
	var sink int
	rd := bytes.NewReader(frame)
	out["wire.decode_batch_us"] = us(timeOps(64, func(n int) {
		for i := 0; i < n; i++ {
			rd.Reset(frame)
			p, err := wire.ReadFrameInto(rd, buf)
			if err != nil {
				panic(err) // the frame was built two lines up
			}
			buf = p[:0]
			d := wire.NewReader(p)
			d.U8()
			for k := d.U32(); k > 0; k-- {
				d.I64()
				sink += len(d.BytesField())
			}
		}
	}))
	_ = sink
}

// probePolicy times the policy engine's hit verdict alone and behind one
// mutex from two goroutines (how the server's policyMu holds it), and an
// H-list install plus epoch boundary at peer_churn's size.
func probePolicy(out map[string]float64) error {
	spec := dataset.Spec{Name: "probe", NumSamples: 4096, MeanSampleBytes: probeHotBytes, Seed: 7}
	newEngine := func(capacity int64) (*icache.Server, error) {
		backend, err := storage.NewBackend(spec, storage.OrangeFS())
		if err != nil {
			return nil, err
		}
		return icache.NewServer(backend, icache.DefaultConfig(capacity), sampling.DefaultIIS(), 1)
	}
	eng, err := newEngine(4 * probeHot * probeHotBytes)
	if err != nil {
		return err
	}
	items := make([]sampling.Item, probeHot)
	hot := make([]dataset.SampleID, probeHot)
	for i := range items {
		hot[i] = dataset.SampleID(i * 61)
		items[i] = sampling.Item{ID: hot[i], IV: 5}
	}
	eng.InstallHList(sampling.NewHList(items))
	eng.FetchBatch(0, hot)
	fetch := func(n int, lock sync.Locker) {
		var served []dataset.SampleID
		ids := make([]dataset.SampleID, probeBatch)
		for i := 0; i < n; i++ {
			for j := range ids {
				ids[j] = hot[(i*probeBatch+j*7)%probeHot]
			}
			served = served[:0]
			lock.Lock()
			eng.FetchBatchInto(simclock.Time(i), ids, &served)
			lock.Unlock()
		}
	}
	out["icache.fetch_ns_per_sample"] = timeOps(256, func(n int) { fetch(n, noLock{}) }) / probeBatch
	var mu sync.Mutex
	out["icache.fetch_locked_2g_ns_per_sample"] = timeOps2(256, func(n int) { fetch(n, &mu) }) / probeBatch

	eng, err = newEngine(int64(probeResidents*probeHotBytes) * 10 / 9)
	if err != nil {
		return err
	}
	ids := make([]dataset.SampleID, probeHList)
	lists := make([]*sampling.HList, 8)
	for t := range lists {
		its := make([]sampling.Item, probeHList)
		for i := range its {
			ids[i] = dataset.SampleID(i * 3)
			its[i] = sampling.Item{ID: ids[i], IV: 1 + dataset.Unit(uint64(i), uint64(t))}
		}
		lists[t] = sampling.NewHList(its)
	}
	eng.InstallHList(lists[0])
	eng.FetchBatch(0, ids)
	tick := 0
	out["icache.install_hlist_ms"] = ms(timeOps(4, func(n int) {
		for i := 0; i < n; i++ {
			tick++
			eng.InstallHList(lists[tick%len(lists)])
			eng.StartEpoch(simclock.Time(tick))
		}
	}))
	return nil
}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// probeHeap times the importance heap at peer_churn's H-capacity.
func probeHeap(out map[string]float64) error {
	h := impheap.New()
	for i := 0; i < probeResidents; i++ {
		if err := h.Insert(dataset.SampleID(i), dataset.Unit(uint64(i), 1)); err != nil {
			return err
		}
	}
	k := 0
	out["impheap.update_ns"] = timeOps(1024, func(n int) {
		for i := 0; i < n; i++ {
			k++
			h.Update(dataset.SampleID(k%probeResidents), dataset.Unit(uint64(k), 2))
		}
	})
	var ierr error
	out["impheap.pop_insert_ns"] = timeOps(1024, func(n int) {
		for i := 0; i < n; i++ {
			k++
			e, _ := h.PopMin()
			if err := h.Insert(e.ID, dataset.Unit(uint64(k), 3)); err != nil {
				ierr = err
			}
		}
	})
	if ierr != nil {
		return ierr
	}

	s := impheap.NewShadowed()
	for i := 0; i < probeResidents; i++ {
		if err := s.Insert(dataset.SampleID(i), dataset.Unit(uint64(i), 1)); err != nil {
			return err
		}
	}
	// One refresh is what InstallHList does to the H-heap: thaw, update
	// every resident, freeze.
	out["impheap.shadow_refresh_ms"] = ms(timeOps(8, func(n int) {
		for i := 0; i < n; i++ {
			k++
			if s.Frozen() {
				if err := s.Thaw(); err != nil {
					ierr = err
				}
			}
			for id := 0; id < probeResidents; id++ {
				s.Update(dataset.SampleID(id), dataset.Unit(uint64(id), uint64(k)))
			}
			if err := s.Freeze(); err != nil {
				ierr = err
			}
		}
	}))
	return ierr
}

func probeSingleflight(out map[string]float64) {
	var g singleflight.Group
	val := []byte{1}
	fn := func() ([]byte, error) { return val, nil }
	out["singleflight.do_ns"] = timeOps(1024, func(n int) {
		for i := 0; i < n; i++ {
			g.Do(int64(i), fn)
		}
	})
	out["singleflight.do_shared_2g_ns"] = timeOps2(1024, func(n int) {
		for i := 0; i < n; i++ {
			g.Do(1, fn)
		}
	})
}

func probeGate(out map[string]float64) {
	g := overload.NewGate(overload.GateConfig{MaxInflight: 8})
	now := time.Now()
	out["overload.admit_ns"] = timeOps(1024, func(n int) {
		for i := 0; i < n; i++ {
			if ok, _ := g.Admit(now); ok {
				g.Done()
			}
		}
	})
}

// probeDirectory times a 16-id LookupBatch against the in-memory directory
// and through a real DirServer and DirClient over loopback, from one caller
// and from two sharing the client: the client holds one request in flight,
// so the second caller's cost is the first one's round trip.
func probeDirectory(out map[string]float64) error {
	dir := dkv.NewDirectory()
	ids := make([]dataset.SampleID, probeBatch)
	for i := range ids {
		ids[i] = dataset.SampleID(i * 5)
		dir.Claim(ids[i], 0)
	}
	out["dkv.directory.lookup_ns_per_id"] = timeOps(1024, func(n int) {
		for i := 0; i < n; i++ {
			dir.LookupBatch(ids)
		}
	}) / probeBatch

	d, err := startDir()
	if err != nil {
		return err
	}
	defer d.close()
	cl, err := dkv.DialDir(d.addr, dialTimeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, id := range ids {
		if _, err := cl.Claim(id, 0); err != nil {
			return err
		}
	}
	var lerr atomic.Pointer[error] // written from two goroutines in the 2c probe
	lookups := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.LookupBatch(ids); err != nil {
				lerr.Store(&err)
			}
		}
	}
	out["dkv.dirclient.lookup_batch_us_1c"] = us(timeOps(64, lookups))
	out["dkv.dirclient.lookup_batch_us_2c"] = us(timeOps2(64, lookups))
	if err := lerr.Load(); err != nil {
		return *err
	}
	return nil
}

func probeData(out map[string]float64) error {
	spec := dataset.Spec{Name: "probe", NumSamples: 4096, MeanSampleBytes: probeBytes, Seed: 7}
	src, err := storage.NewDataSource(spec)
	if err != nil {
		return err
	}
	var ferr error
	k := 0
	out["storage.generate_us"] = us(timeOps(64, func(n int) {
		for i := 0; i < n; i++ {
			k++
			if _, err := src.Fetch(dataset.SampleID(k % spec.NumSamples)); err != nil {
				ferr = err
			}
		}
	}))
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = spec.Payload(dataset.SampleID(i))
	}
	out["dataset.verify_us_per_sample"] = us(timeOps(64, func(n int) {
		for i := 0; i < n; i++ {
			if err := spec.VerifyPayload(dataset.SampleID(i%64), payloads[i%64]); err != nil {
				ferr = err
			}
		}
	}))
	return ferr
}
