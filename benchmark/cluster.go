package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/icache"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/rpc"
	"icache/internal/sampling"
	"icache/internal/storage"
)

const dialTimeout = 5 * time.Second

// nodeOpts describes one cache node. Everything is built through the
// program's public constructors, the way cmd/icache-server builds it.
type nodeOpts struct {
	spec     dataset.Spec
	capacity int64
	lcache   bool
	latency  time.Duration // nominal backend latency per Fetch
	gate     *overload.Gate
	seed     int64
	traced   bool // arm the stage registry (EnableObs(reg, nil))
	rec      *recorder

	// Distributed wiring; dirAddr empty means a lone node.
	nodeID  dkv.NodeID
	dirAddr string
	peers   map[dkv.NodeID]string
	ln      net.Listener // pre-opened when peers must know the address
}

// node is a running cache node with the handles the benchmark reads.
type node struct {
	srv   *rpc.Server
	src   *latencySource
	gate  *overload.Gate
	dir   *timedDir
	dirCl *dkv.DirClient
	addr  string
	done  chan error
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func startNode(o nodeOpts) (*node, error) {
	backend, err := storage.NewBackend(o.spec, storage.OrangeFS())
	if err != nil {
		return nil, err
	}
	cfg := icache.DefaultConfig(o.capacity)
	cfg.EnableLCache = o.lcache
	cacheSrv, err := icache.NewServer(backend, cfg, sampling.DefaultIIS(), o.seed)
	if err != nil {
		return nil, err
	}
	data, err := storage.NewDataSource(o.spec)
	if err != nil {
		return nil, err
	}
	n := &node{
		src:  &latencySource{inner: data, nominal: o.latency, rec: o.rec},
		gate: o.gate,
		done: make(chan error, 1),
	}
	n.srv = rpc.NewServer(cacheSrv, n.src)
	n.srv.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "server: "+format+"\n", args...)
	}
	if o.gate != nil {
		n.srv.SetAdmission(o.gate)
	}
	if o.traced {
		n.srv.EnableObs(obs.NewRegistry(), nil)
	}
	if o.dirAddr != "" {
		n.dirCl, err = dkv.DialDir(o.dirAddr, dialTimeout)
		if err != nil {
			return nil, err
		}
		n.dir = &timedDir{inner: n.dirCl, rec: o.rec}
		n.srv.EnableDistributed(o.nodeID, n.dir, o.peers)
		n.srv.SetPeerConfig(rpc.PeerConfig{Batch: 256})
	}
	ln := o.ln
	if ln == nil {
		if ln, err = listen(); err != nil {
			return nil, err
		}
	}
	n.addr = ln.Addr().String()
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// close stops the node and waits for its accept loop, connections and
// worker pools to end. A node that was never started closes as a no-op, so
// a workload can tear down after a set-up that failed half-way.
func (n *node) close() error {
	if n == nil {
		return nil
	}
	err := n.srv.Close()
	if serr := <-n.done; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	if n.dirCl != nil {
		err = errors.Join(err, n.dirCl.Close())
	}
	return err
}

// dirNode is a running directory service.
type dirNode struct {
	srv  *dkv.DirServer
	addr string
	done chan error
}

func startDir() (*dirNode, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	d := &dirNode{srv: dkv.NewDirServer(dkv.NewDirectory()), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *dirNode) close() error {
	if d == nil {
		return nil
	}
	err := d.srv.Close()
	if serr := <-d.done; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// dialN opens n client connections to addr.
func dialN(addr string, n int, cfg rpc.DialConfig) ([]*rpc.Client, error) {
	cfg.Timeout = dialTimeout
	out := make([]*rpc.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := rpc.DialConfigured(addr, cfg)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeClients(cs []*rpc.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// resilience sums the retry and redial counters of a set of clients; both
// must stay 0 on loopback.
func resilience(cs []*rpc.Client) (retries, redials int64) {
	for _, c := range cs {
		r, d := c.Resilience()
		retries += r
		redials += d
	}
	return
}

// nodeCounts is every public counter of a node read at one instant; the
// per-layer numbers are differences of two of these.
type nodeCounts struct {
	m        rpc.MetricsSnapshot
	requests float64 // hits+misses+substitutions+degraded
	serving  metrics.ServingStats
	decision metrics.DecisionStats
	shed     int64
	expired  int64
	demand   int64
	gate     overload.GateStats
	src      sourceCounts
	dir      dirCounts
	stages   map[string]obs.HistSnapshot
}

func (n *node) counts() nodeCounts {
	c := nodeCounts{
		m:        n.srv.Metrics(),
		requests: n.srv.TimelinePoint()["requests"],
		serving:  n.srv.ServingStats(),
		decision: n.srv.DecisionStats(),
		demand:   n.srv.DemandFetches(),
		src:      n.src.counts(),
		stages:   stageMap(n.srv.ObsRegistry().Snapshot()),
	}
	c.shed, c.expired = n.srv.OverloadCounters()
	if n.gate != nil {
		c.gate = n.gate.Stats()
	}
	if n.dir != nil {
		c.dir = n.dir.counts()
	}
	return c
}
