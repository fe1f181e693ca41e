// Package storage models the backend storage systems the paper trains
// against: an OrangeFS-like striped parallel file system, a single NFS
// server (used by the paper's distributed-cloud experiment), and a local
// DRAM tmpfs (used by the paper's Fig. 2 motivation experiment).
//
// Everything here runs in virtual time (see internal/simclock). A read is a
// trip through two FIFO resources — the owning storage server(s) and the
// client's network link — so concurrent fetchers, background package loads,
// and co-located training jobs all contend exactly where real ones would:
// at the server queue and on the wire.
//
// The package also provides DataSource, the real-bytes side used by the TCP
// cache server: deterministic payload generation plus failure injection.
package storage

import (
	"fmt"
	"sync"
	"time"

	"icache/internal/dataset"
	"icache/internal/faults"
	"icache/internal/simclock"
)

// HitLatency is the per-sample cost of a cache-served request: the
// user-level RPC to a same-node cache server plus the copy, paid serially by
// the fetching worker like PyTorch workers do. iCache and every baseline
// charge it, so the figures that compare them compare like with like.
const HitLatency = 20 * time.Microsecond

// Config parameterizes a simulated backend.
type Config struct {
	// Servers is the number of storage servers the dataset is striped over.
	// 1 models a single NFS server.
	Servers int
	// StripeBytes is the striping unit (the paper uses 64 KB in OrangeFS).
	StripeBytes int
	// PerReadOverhead is the fixed per-request cost: client RPC, server
	// dispatch, and media seek. This is what makes small random reads slow.
	PerReadOverhead time.Duration
	// ServerBandwidth is each server's streaming throughput in bytes/sec.
	ServerBandwidth float64
	// LinkBandwidth is the client-side network bandwidth in bytes/sec
	// (10 Gb/s in the paper's testbed).
	LinkBandwidth float64
	// ServerParallelism is how many requests one server serves concurrently.
	ServerParallelism int
}

// OrangeFS returns the paper's default backend: four servers, 64 KB stripes,
// 10 GbE. The per-read overhead is calibrated so that random small-sample
// reads are IOPS-bound, the regime every experiment in the paper sits in.
func OrangeFS() Config {
	return Config{
		Servers:           4,
		StripeBytes:       64 * 1024,
		PerReadOverhead:   1500 * time.Microsecond,
		ServerBandwidth:   400e6,  // 400 MB/s per server
		LinkBandwidth:     1.25e9, // 10 Gb/s
		ServerParallelism: 4,
	}
}

// NFS returns a single-server NFS-like backend with ~10 Gb/s peak read
// bandwidth, matching the cloud setup of the paper's §V-G.
func NFS() Config {
	return Config{
		Servers:           1,
		StripeBytes:       1 << 20,
		PerReadOverhead:   2 * time.Millisecond,
		ServerBandwidth:   1.25e9,
		LinkBandwidth:     1.25e9,
		ServerParallelism: 8,
	}
}

// Tmpfs returns a local-DRAM filesystem model: negligible overhead, memory
// bandwidth. Used to reproduce the paper's Fig. 2(a), where I/O is not the
// bottleneck.
func Tmpfs() Config {
	return Config{
		Servers:           1,
		StripeBytes:       1 << 20,
		PerReadOverhead:   2 * time.Microsecond,
		ServerBandwidth:   20e9,
		LinkBandwidth:     20e9,
		ServerParallelism: 16,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("storage: Servers=%d, want > 0", c.Servers)
	case c.StripeBytes <= 0:
		return fmt.Errorf("storage: StripeBytes=%d, want > 0", c.StripeBytes)
	case c.PerReadOverhead < 0:
		return fmt.Errorf("storage: negative PerReadOverhead %v", c.PerReadOverhead)
	case c.ServerBandwidth <= 0:
		return fmt.Errorf("storage: ServerBandwidth=%g, want > 0", c.ServerBandwidth)
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("storage: LinkBandwidth=%g, want > 0", c.LinkBandwidth)
	case c.ServerParallelism <= 0:
		return fmt.Errorf("storage: ServerParallelism=%d, want > 0", c.ServerParallelism)
	}
	return nil
}

// Stats aggregates the traffic a backend has served.
type Stats struct {
	SampleReads  int64
	PackageReads int64
	BytesRead    int64
}

// Backend is a simulated storage system holding one dataset.
type Backend struct {
	spec    dataset.Spec
	cfg     Config
	servers []*simclock.Pool
	link    *simclock.Resource
	stats   Stats
}

// NewBackend builds a backend for the dataset described by spec.
func NewBackend(spec dataset.Spec, cfg Config) (*Backend, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{spec: spec, cfg: cfg, link: &simclock.Resource{}}
	b.servers = make([]*simclock.Pool, cfg.Servers)
	for i := range b.servers {
		b.servers[i] = simclock.NewPool(cfg.ServerParallelism)
	}
	return b, nil
}

// Spec returns the dataset this backend stores.
func (b *Backend) Spec() dataset.Spec { return b.spec }

// Config returns the backend's cost-model parameters.
func (b *Backend) Config() Config { return b.cfg }

// Stats returns a copy of the traffic counters.
func (b *Backend) Stats() Stats { return b.stats }

// ResetStats zeroes the traffic counters without idling the resources.
func (b *Backend) ResetStats() { b.stats = Stats{} }

// Reset idles every resource and zeroes counters, returning the backend to
// its initial state for a fresh experiment.
func (b *Backend) Reset() {
	b.stats = Stats{}
	b.link.Reset()
	for _, s := range b.servers {
		s.Reset()
	}
}

// homeServer returns the server holding the first stripe of a sample. Files
// are laid out round-robin by ID, which spreads a random workload evenly.
func (b *Backend) homeServer(id dataset.SampleID) int {
	return int(uint64(id) % uint64(b.cfg.Servers))
}

// ReadSample simulates a random read of one sample arriving at virtual time
// at, and returns the completion time. A sample larger than one stripe pays
// the extra transfer but only one request overhead: OrangeFS issues the
// stripe reads in parallel and the first-stripe server dominates queueing.
func (b *Backend) ReadSample(at simclock.Time, id dataset.SampleID) simclock.Time {
	size := b.spec.SampleBytes(id)
	b.stats.SampleReads++
	b.stats.BytesRead += int64(size)

	perServer := size
	if size > b.cfg.StripeBytes {
		// Striped across servers: each moves ~1/Servers of the bytes.
		perServer = (size + b.cfg.Servers - 1) / b.cfg.Servers
	}
	service := b.cfg.PerReadOverhead + bps(perServer, b.cfg.ServerBandwidth)
	_, srvEnd := b.servers[b.homeServer(id)].Acquire(at, service)
	_, end := b.link.Acquire(srvEnd, bps(size, b.cfg.LinkBandwidth))
	return end
}

// ReadPackage simulates one large sequential read of totalBytes (a package
// of L-samples, ≥1 MB in the paper). The package is striped over all
// servers, which stream their shares in parallel; a single request overhead
// is paid. Returns the completion time.
func (b *Backend) ReadPackage(at simclock.Time, totalBytes int) simclock.Time {
	if totalBytes <= 0 {
		return at
	}
	b.stats.PackageReads++
	b.stats.BytesRead += int64(totalBytes)

	perServer := (totalBytes + b.cfg.Servers - 1) / b.cfg.Servers
	service := b.cfg.PerReadOverhead + bps(perServer, b.cfg.ServerBandwidth)
	var latest simclock.Time
	for _, s := range b.servers {
		if _, end := s.Acquire(at, service); end > latest {
			latest = end
		}
	}
	_, end := b.link.Acquire(latest, bps(totalBytes, b.cfg.LinkBandwidth))
	return end
}

// bps converts a byte count and a bytes/sec bandwidth into a duration.
func bps(bytes int, bandwidth float64) time.Duration {
	return time.Duration(float64(bytes) / bandwidth * float64(time.Second))
}

// DataSource is the real-bytes side of the backend, used by the TCP cache
// server and the examples. It serves deterministic payloads generated from
// the dataset spec and supports failure injection for resilience tests
// through the shared internal/faults substrate.
type DataSource struct {
	spec dataset.Spec

	mu    sync.Mutex
	reads int64
	inj   *faults.Injector
}

// NewDataSource builds a byte-serving source for the dataset.
func NewDataSource(spec dataset.Spec) (*DataSource, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &DataSource{spec: spec}, nil
}

// Spec returns the dataset this source serves.
func (d *DataSource) Spec() dataset.Spec { return d.spec }

// Injector returns the source's fault injector, creating an empty one on
// first use. Fetch is frequently called from background loader goroutines,
// so arming faults through the injector (which is internally synchronized)
// is race-free — unlike the pre-faults ad-hoc counter this replaces.
func (d *DataSource) Injector() *faults.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inj == nil {
		d.inj = faults.New(0)
	}
	return d.inj
}

// Fetch returns the payload of the sample, or an injected/real error.
func (d *DataSource) Fetch(id dataset.SampleID) ([]byte, error) {
	if !d.spec.Contains(id) {
		return nil, fmt.Errorf("storage: sample %d out of range for dataset %q", id, d.spec.Name)
	}
	d.mu.Lock()
	d.reads++
	inj := d.inj
	d.mu.Unlock()
	switch dec := inj.Decide(faults.OpSourceFetch); dec.Action {
	case faults.ActError, faults.ActDrop:
		return nil, dec.Err
	case faults.ActDelay:
		if dec.Delay > 0 {
			time.Sleep(dec.Delay)
		}
	}
	return d.spec.Payload(id), nil
}

// Reads reports how many valid Fetch calls have been served, counting
// injected failures but not out-of-range requests.
func (d *DataSource) Reads() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}
