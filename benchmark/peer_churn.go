package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/rpc"
	"icache/internal/sampling"
)

// peerChurn reads through node B of a two-node deployment sharing one
// directory service. Three draws in four name samples node A owns, so every
// request pays one directory LookupBatch and one PeerGetBatch; the fourth
// names a B-local range about twice B's capacity whose importance values a
// control connection rotates every quarter second, so B keeps installing
// H-lists, admitting (directory Claim) and evicting (Release) beside the
// reads.
type peerChurn struct {
	e env

	samples, sampleBytes    int
	aSet, bRange, bCapacity int
	conns, batch            int
	rotate                  time.Duration

	spec     dataset.Spec
	aIDs     []dataset.SampleID
	bIDs     []dataset.SampleID
	check    func([]dataset.SampleID, []rpc.Sample) error
	dir      *dirNode
	a, b     *node
	clients  []*rpc.Client
	control  *rpc.Client
	tick     uint64
	boundary lat
}

func newPeerChurn(e env) *peerChurn {
	return &peerChurn{e: e, samples: 4096, sampleBytes: 4096, aSet: 256, bRange: 1024, bCapacity: 512,
		conns: 2, batch: 16, rotate: 250 * time.Millisecond}
}

func (*peerChurn) rounds() int    { return 5 }
func (*peerChurn) cpuBound() bool { return true }

func (p *peerChurn) sizes() map[string]float64 {
	return map[string]float64{"samples": float64(p.samples), "sample_bytes": float64(p.sampleBytes),
		"a_set": float64(p.aSet), "b_range": float64(p.bRange), "b_capacity_samples": float64(p.bCapacity),
		"conns": float64(p.conns), "batch": float64(p.batch), "rotate_ms": ms(float64(p.rotate))}
}

// rotateImportance pushes the B-local range's importance values for the
// next tick and crosses an epoch boundary, timing the pair.
func (p *peerChurn) rotateImportance() error {
	items := make([]sampling.Item, len(p.bIDs))
	for i, id := range p.bIDs {
		items[i] = sampling.Item{ID: id, IV: 1 + dataset.Unit(uint64(id), p.tick)}
	}
	t0 := time.Now()
	if err := p.control.UpdateImportance(items); err != nil {
		return err
	}
	if err := p.control.BeginEpoch(int(p.tick)); err != nil {
		return err
	}
	t1 := time.Now()
	p.e.rec.child("rpc.client.boundary", t0, t1)
	p.boundary = append(p.boundary, t1.Sub(t0).Nanoseconds())
	p.tick++
	return nil
}

func (p *peerChurn) setup() error {
	p.spec = dataset.Spec{Name: "bench-peer", NumSamples: p.samples, MeanSampleBytes: p.sampleBytes, Seed: 7}
	perm := rand.New(rand.NewSource(p.e.seed)).Perm(p.samples)
	p.aIDs, p.bIDs = p.aIDs[:0], p.bIDs[:0]
	for _, i := range perm[:p.aSet] {
		p.aIDs = append(p.aIDs, dataset.SampleID(i))
	}
	for _, i := range perm[p.aSet : p.aSet+p.bRange] {
		p.bIDs = append(p.bIDs, dataset.SampleID(i))
	}
	p.check = exactBatch(tableVerifier(p.spec, append(append([]dataset.SampleID(nil), p.aIDs...), p.bIDs...)))

	var err error
	if p.dir, err = startDir(); err != nil {
		return err
	}
	lnA, err := listen()
	if err != nil {
		return err
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return err
	}
	// L-cache off on both nodes: an id outside B's H-list must go to the
	// peer, not be answered by an L-cache substitute.
	p.a, err = startNode(nodeOpts{spec: p.spec, capacity: int64(2 * p.aSet * p.sampleBytes), seed: p.e.seed,
		traced: p.e.traced, rec: p.e.rec, nodeID: 0, dirAddr: p.dir.addr, ln: lnA,
		peers: map[dkv.NodeID]string{1: lnB.Addr().String()}})
	if err != nil {
		lnA.Close()
		lnB.Close()
		return err
	}
	p.b, err = startNode(nodeOpts{spec: p.spec, capacity: int64(p.bCapacity * p.sampleBytes), seed: p.e.seed + 1,
		traced: p.e.traced, rec: p.e.rec, nodeID: 1, dirAddr: p.dir.addr, ln: lnB,
		peers: map[dkv.NodeID]string{0: p.a.addr}})
	if err != nil {
		lnB.Close()
		return err
	}

	// Make node A the owner of its set.
	toA, err := dialN(p.a.addr, 1, rpc.DialConfig{})
	if err != nil {
		return err
	}
	defer closeClients(toA)
	items := make([]sampling.Item, len(p.aIDs))
	for i, id := range p.aIDs {
		items[i] = sampling.Item{ID: id, IV: 5}
	}
	if err := toA[0].UpdateImportance(items); err != nil {
		return err
	}
	if err := toA[0].GetBatchFunc(p.aIDs, func(got []rpc.Sample) error { return p.check(p.aIDs, got) }); err != nil {
		return err
	}

	if p.clients, err = dialN(p.b.addr, p.conns+1, rpc.DialConfig{}); err != nil {
		return err
	}
	p.control, p.clients = p.clients[p.conns], p.clients[:p.conns]
	if err := p.rotateImportance(); err != nil {
		return err
	}
	// Fill B from its own range, then read A's set through B once: that
	// must be served from A's memory, or the window would measure backend
	// reads where it claims peer reads.
	for off := 0; off < len(p.bIDs); off += 256 {
		ids := p.bIDs[off:min(off+256, len(p.bIDs))]
		if err := p.clients[0].GetBatchFunc(ids, func(got []rpc.Sample) error { return p.check(ids, got) }); err != nil {
			return err
		}
	}
	if err := p.clients[0].GetBatchFunc(p.aIDs, func(got []rpc.Sample) error { return p.check(p.aIDs, got) }); err != nil {
		return err
	}
	if _, hits := p.b.srv.PeerStats(); hits != int64(p.aSet) {
		return fmt.Errorf("node B served %d of A's %d samples from A's memory", hits, p.aSet)
	}
	p.boundary = p.boundary[:0]
	return nil
}

func (p *peerChurn) teardown() error {
	closeClients(p.clients)
	if p.control != nil {
		p.control.Close()
	}
	return errors.Join(p.b.close(), p.a.close(), p.dir.close())
}

func (p *peerChurn) measure(d time.Duration) (*window, error) {
	w := &window{extra: map[string]float64{}}
	p.b.src.resetPeak()
	dirA0 := p.a.dir.counts()
	w.procB, w.before = readProc(), p.b.counts()

	stop := make(chan struct{})
	var ctl sync.WaitGroup
	var ctlErr error
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		tk := time.NewTicker(p.rotate)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				if ctlErr = p.rotateImportance(); ctlErr != nil {
					return
				}
			}
		}
	}()
	closedLoop(p.e.rec, p.clients, p.e.seed, p.batch, d, func(rng *rand.Rand, ids []dataset.SampleID) {
		for i := range ids {
			if rng.Intn(4) < 3 {
				ids[i] = p.aIDs[rng.Intn(len(p.aIDs))]
			} else {
				ids[i] = p.bIDs[rng.Intn(len(p.bIDs))]
			}
		}
	}, p.check, w)
	close(stop)
	ctl.Wait()
	w.after, w.procA = p.b.counts(), readProc()
	if ctlErr != nil {
		return nil, fmt.Errorf("importance rotation: %w", ctlErr)
	}
	w.attempted += 2 * int64(len(p.boundary))

	dir := w.after.dir.since(w.before.dir)
	dirA := p.a.dir.counts().since(dirA0)
	w.extra["workload.boundary_p50_ms"] = ms(p.boundary.sorted().quantile(0.5))
	w.extra["workload.boundaries"] = float64(len(p.boundary))
	w.extra["dkv.lookup_batch.calls_per_batch"] = ratio(float64(dir.lookupBatch.calls), float64(w.batches))
	w.extra["dkv.lookup_batch.p50_us"] = us(dir.lookupBatch.lats.sorted().quantile(0.5))
	w.extra["dkv.claim.calls_per_s"] = ratio(float64(dir.claim.calls), secs(w.wall))
	w.extra["dkv.claim.p50_us"] = us(dir.claim.lats.sorted().quantile(0.5))
	w.extra["dkv.release.calls_per_s"] = ratio(float64(dir.release.calls), secs(w.wall))
	_, errsB, busy := dir.total()
	_, errsA, _ := dirA.total()
	w.extra["dkv.busy_s"] = float64(busy) / 1e9
	w.extra["dkv.errors"] = float64(errsA + errsB)

	if errsA+errsB != 0 {
		w.fail("%d directory calls failed", errsA+errsB)
	}
	for name, n := range map[string]*node{"A": p.a, "B": p.b} {
		if pf, df := n.srv.ResilienceStats(); pf != 0 || df != 0 {
			w.fail("node %s degraded around %d peer and %d directory failures", name, pf, df)
		}
	}
	if w.after.m.PeerHits == w.before.m.PeerHits {
		w.fail("no sample was served from node A's memory")
	}
	w.checkServed()
	w.checkClients(append([]*rpc.Client{p.control}, p.clients...))
	return w, nil
}
