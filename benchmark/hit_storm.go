package main

import (
	"fmt"
	"math/rand"
	"time"

	"icache/internal/dataset"
	"icache/internal/rpc"
	"icache/internal/sampling"
)

// hitStorm saturates the pure hit path: two closed-loop connections draw
// uniformly from a hot set that was made resident before the window opens,
// so no request reaches the backend, the directory or the gate.
type hitStorm struct {
	e env

	samples, sampleBytes int
	hot, conns, batch    int

	spec    dataset.Spec
	hotIDs  []dataset.SampleID
	check   func([]dataset.SampleID, []rpc.Sample) error
	node    *node
	clients []*rpc.Client
}

func newHitStorm(e env) *hitStorm {
	return &hitStorm{e: e, samples: 4096, sampleBytes: 16 << 10, hot: 64, conns: 2, batch: 16}
}

func (*hitStorm) rounds() int    { return 5 }
func (*hitStorm) cpuBound() bool { return true }

func (h *hitStorm) sizes() map[string]float64 {
	return map[string]float64{"samples": float64(h.samples), "sample_bytes": float64(h.sampleBytes),
		"hot_set": float64(h.hot), "conns": float64(h.conns), "batch": float64(h.batch)}
}

func (h *hitStorm) setup() error {
	h.spec = dataset.Spec{Name: "bench-hit", NumSamples: h.samples, MeanSampleBytes: h.sampleBytes, Seed: 7}
	rng := rand.New(rand.NewSource(h.e.seed))
	h.hotIDs = h.hotIDs[:0]
	for _, i := range rng.Perm(h.samples)[:h.hot] {
		h.hotIDs = append(h.hotIDs, dataset.SampleID(i))
	}
	h.check = exactBatch(tableVerifier(h.spec, h.hotIDs))

	// Room for four hot sets in the H-region, so residency never depends on
	// eviction order.
	capacity := int64(4 * h.hot * h.sampleBytes)
	var err error
	h.node, err = startNode(nodeOpts{spec: h.spec, capacity: capacity, lcache: true,
		seed: h.e.seed, traced: h.e.traced, rec: h.e.rec})
	if err != nil {
		return err
	}
	if h.clients, err = dialN(h.node.addr, h.conns, rpc.DialConfig{}); err != nil {
		return err
	}
	items := make([]sampling.Item, len(h.hotIDs))
	for i, id := range h.hotIDs {
		items[i] = sampling.Item{ID: id, IV: 5}
	}
	if err := h.clients[0].UpdateImportance(items); err != nil {
		return err
	}
	// One pass over the hot set admits every sample; a second pass must then
	// be all hits, or the window would not measure the hit path.
	for pass := 0; pass < 2; pass++ {
		if err := h.clients[0].GetBatchFunc(h.hotIDs, func(got []rpc.Sample) error { return h.check(h.hotIDs, got) }); err != nil {
			return err
		}
	}
	if reads := h.node.src.counts().calls; reads != int64(h.hot) {
		return fmt.Errorf("residency fill read the backend %d times, want %d", reads, h.hot)
	}
	return nil
}

func (h *hitStorm) teardown() error {
	closeClients(h.clients)
	return h.node.close()
}

func (h *hitStorm) measure(d time.Duration) (*window, error) {
	w := &window{extra: map[string]float64{}}
	h.node.src.resetPeak()
	w.procB, w.before = readProc(), h.node.counts()
	closedLoop(h.e.rec, h.clients, h.e.seed, h.batch, d, func(rng *rand.Rand, ids []dataset.SampleID) {
		for i := range ids {
			ids[i] = h.hotIDs[rng.Intn(len(h.hotIDs))]
		}
	}, h.check, w)
	w.after, w.procA = h.node.counts(), readProc()

	if n := w.after.src.calls - w.before.src.calls; n != 0 {
		w.fail("hit_storm read the backend %d times in the window, want 0", n)
	}
	w.checkServed()
	w.checkClients(h.clients)
	return w, nil
}
