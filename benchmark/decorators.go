package main

import (
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/rpc"
)

// The two decorators sit at the boundaries the program already takes as
// interfaces. They count, time and (in a traced run) record spans; neither
// changes a result the program sees. Both are installed in the untraced run
// too, with a nil recorder, so the traced and untraced program differ only
// in the stage registry.

// latencySource is an rpc.ByteSource that charges a nominal latency per
// Fetch, the way slow shared storage would, before delegating. It records
// the latency it actually charged: time.Sleep oversleeps short waits, so the
// nominal figure is not what the program paid.
type latencySource struct {
	inner   rpc.ByteSource
	nominal time.Duration
	rec     *recorder

	calls  atomic.Int64
	errors atomic.Int64
	busyNs atomic.Int64
	cur    atomic.Int64
	peak   atomic.Int64
}

func (s *latencySource) Spec() dataset.Spec { return s.inner.Spec() }

func (s *latencySource) Fetch(id dataset.SampleID) ([]byte, error) {
	n := s.cur.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	t0 := time.Now()
	if s.nominal > 0 {
		time.Sleep(s.nominal)
	}
	b, err := s.inner.Fetch(id)
	t1 := time.Now()
	s.cur.Add(-1)
	s.calls.Add(1)
	s.busyNs.Add(t1.Sub(t0).Nanoseconds())
	if err != nil {
		s.errors.Add(1)
	}
	s.rec.child("storage.fetch", t0, t1)
	return b, err
}

// sourceCounts is a point-in-time copy of a latencySource's counters.
type sourceCounts struct {
	calls, errors, busyNs, peak int64
}

func (s *latencySource) counts() sourceCounts {
	return sourceCounts{s.calls.Load(), s.errors.Load(), s.busyNs.Load(), s.peak.Load()}
}

// resetPeak restarts the concurrency high-water mark at the start of the
// measured window (the other counters are read as deltas).
func (s *latencySource) resetPeak() { s.peak.Store(s.cur.Load()) }

// opTimer accumulates one directory operation's calls, errors, busy time
// and individual latencies.
type opTimer struct {
	mu     sync.Mutex
	calls  int64
	errors int64
	busyNs int64
	lats   lat
}

func (o *opTimer) observe(d time.Duration, err error) {
	o.mu.Lock()
	o.calls++
	o.busyNs += d.Nanoseconds()
	if err != nil {
		o.errors++
	}
	o.lats = append(o.lats, d.Nanoseconds())
	o.mu.Unlock()
}

// opCounts is a copy of an opTimer; lats holds only the latencies observed
// since the copy it is subtracted from.
type opCounts struct {
	calls, errors, busyNs int64
	lats                  lat
}

func (o *opTimer) counts() opCounts {
	o.mu.Lock()
	defer o.mu.Unlock()
	return opCounts{o.calls, o.errors, o.busyNs, append(lat(nil), o.lats...)}
}

func (a opCounts) since(b opCounts) opCounts {
	return opCounts{a.calls - b.calls, a.errors - b.errors, a.busyNs - b.busyNs, a.lats[len(b.lats):]}
}

// timedDir is a dkv.Service that times every call a cache node makes to the
// directory. It implements only the plain Service methods, so the node uses
// LookupBatch and not the DirClient's traced or deadline variants; no
// workload here sends traced or deadlined requests to a distributed node,
// so the calls made are the ones an undecorated DirClient would see.
type timedDir struct {
	inner dkv.Service
	rec   *recorder

	lookup, lookupBatch, claim, release, other opTimer
}

func (d *timedDir) time(o *opTimer, name string, t0 time.Time, err error) {
	t1 := time.Now()
	o.observe(t1.Sub(t0), err)
	d.rec.child(name, t0, t1)
}

func (d *timedDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	t0 := time.Now()
	n, ok, err := d.inner.Lookup(id)
	d.time(&d.lookup, "dkv.lookup", t0, err)
	return n, ok, err
}

func (d *timedDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	t0 := time.Now()
	o, err := d.inner.LookupBatch(ids)
	d.time(&d.lookupBatch, "dkv.lookup_batch", t0, err)
	return o, err
}

func (d *timedDir) Claim(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	t0 := time.Now()
	ok, err := d.inner.Claim(id, node)
	d.time(&d.claim, "dkv.claim", t0, err)
	return ok, err
}

func (d *timedDir) Release(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	t0 := time.Now()
	ok, err := d.inner.Release(id, node)
	d.time(&d.release, "dkv.release", t0, err)
	return ok, err
}

func (d *timedDir) Len() (int, error) {
	t0 := time.Now()
	n, err := d.inner.Len()
	d.time(&d.other, "dkv.len", t0, err)
	return n, err
}

func (d *timedDir) Register(node dkv.NodeID, ttl time.Duration) (dkv.NodeInfo, error) {
	t0 := time.Now()
	i, err := d.inner.Register(node, ttl)
	d.time(&d.other, "dkv.register", t0, err)
	return i, err
}

func (d *timedDir) Heartbeat(node dkv.NodeID) (bool, error) {
	t0 := time.Now()
	ok, err := d.inner.Heartbeat(node)
	d.time(&d.other, "dkv.heartbeat", t0, err)
	return ok, err
}

func (d *timedDir) ListNodes() ([]dkv.NodeInfo, error) {
	t0 := time.Now()
	n, err := d.inner.ListNodes()
	d.time(&d.other, "dkv.list_nodes", t0, err)
	return n, err
}

func (d *timedDir) OwnedBy(node dkv.NodeID, max int) ([]dataset.SampleID, error) {
	t0 := time.Now()
	ids, err := d.inner.OwnedBy(node, max)
	d.time(&d.other, "dkv.owned_by", t0, err)
	return ids, err
}

func (d *timedDir) PurgeDead(max int) (int, error) {
	t0 := time.Now()
	n, err := d.inner.PurgeDead(max)
	d.time(&d.other, "dkv.purge_dead", t0, err)
	return n, err
}

// dirCounts is a copy of every timer of a timedDir.
type dirCounts struct {
	lookup, lookupBatch, claim, release, other opCounts
}

func (d *timedDir) counts() dirCounts {
	return dirCounts{d.lookup.counts(), d.lookupBatch.counts(), d.claim.counts(), d.release.counts(), d.other.counts()}
}

func (a dirCounts) since(b dirCounts) dirCounts {
	return dirCounts{a.lookup.since(b.lookup), a.lookupBatch.since(b.lookupBatch),
		a.claim.since(b.claim), a.release.since(b.release), a.other.since(b.other)}
}

// total sums calls, errors and busy time over every operation.
func (c dirCounts) total() (calls, errs, busyNs int64) {
	for _, o := range []opCounts{c.lookup, c.lookupBatch, c.claim, c.release, c.other} {
		calls += o.calls
		errs += o.errors
		busyNs += o.busyNs
	}
	return
}
