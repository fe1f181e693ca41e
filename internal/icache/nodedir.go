package icache

import (
	"errors"
	"slices"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/simclock"
)

// The simulator-only degraded mode: a node that has seen the directory fail
// stops asking it for a while, and the ownership releases it could not
// deliver wait in a bounded queue. rpc.Server has neither — it counts the
// failure, degrades the one request and asks again next time (ROADMAP item
// 4: port this or delete it).

// nodeDir is one node's connection to the cluster's directory, and where the
// degraded mode lives: after a directory failure the node serves local-only
// — every operation fails fast, counted, without reaching the directory —
// until downUntil, then re-probes; the first success replays the releases
// deferred meanwhile.
type nodeDir struct {
	cl        *Cluster
	down      bool
	downUntil simclock.Time
}

var errLocalOnly = errors.New("icache: node is serving local-only")

// via runs one directory operation for the node: refused, counted, inside
// the local-only window; a failure flips (or keeps) the node local-only for
// DirReprobeInterval, a success heals it and replays the deferred releases.
func via[T any](d *nodeDir, op func(dkv.Service) (T, error)) (T, error) {
	cl := d.cl
	if d.down && cl.at < d.downUntil {
		cl.res.LocalOnlySkips++
		var none T
		return none, errLocalOnly
	}
	v, err := op(cl.dir)
	if err != nil {
		cl.res.DirFailures++
		if !d.down {
			d.down = true
			cl.res.LocalOnly++
		}
		d.downUntil = cl.at + cl.cfg.DirReprobeInterval
		return v, err
	}
	d.down = false
	cl.replayDeferred()
	return v, nil
}

func (d *nodeDir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	o, err := via(d, func(s dkv.Service) (o dkv.Owner, err error) {
		o.Node, o.Found, err = s.Lookup(id)
		return o, err
	})
	return o.Node, o.Found, err
}

func (d *nodeDir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	return via(d, func(s dkv.Service) ([]dkv.Owner, error) { return s.LookupBatch(ids) })
}

// Claim: a directory failure counts as a failed claim (unregistered
// ownership would break the no-duplication invariant); a granted one
// supersedes any release of id deferred while the directory was down —
// replaying that would silently drop live ownership.
func (d *nodeDir) Claim(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	return via(d, func(s dkv.Service) (bool, error) {
		claimed, err := s.Claim(id, node)
		if claimed {
			delete(d.cl.deferred, id)
		}
		return claimed, err
	})
}

func (d *nodeDir) Release(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	return via(d, func(s dkv.Service) (bool, error) {
		released, err := s.Release(id, node)
		if who, queued := d.cl.deferred[id]; err == nil && queued && who == node {
			delete(d.cl.deferred, id) // this call did the deferred work
		}
		return released, err
	})
}

func (d *nodeDir) Len() (int, error) { return d.cl.dir.Len() }

func (d *nodeDir) Register(node dkv.NodeID, ttl time.Duration) (dkv.NodeInfo, error) {
	return via(d, func(s dkv.Service) (dkv.NodeInfo, error) { return s.Register(node, ttl) })
}

func (d *nodeDir) Heartbeat(node dkv.NodeID) (bool, error) {
	return via(d, func(s dkv.Service) (bool, error) { return s.Heartbeat(node) })
}

func (d *nodeDir) ListNodes() ([]dkv.NodeInfo, error) {
	return via(d, func(s dkv.Service) ([]dkv.NodeInfo, error) { return s.ListNodes() })
}

func (d *nodeDir) OwnedBy(node dkv.NodeID, max int) ([]dataset.SampleID, error) {
	return via(d, func(s dkv.Service) ([]dataset.SampleID, error) { return s.OwnedBy(node, max) })
}

func (d *nodeDir) PurgeDead(max int) (int, error) {
	return via(d, func(s dkv.Service) (int, error) { return s.PurgeDead(max) })
}

// release gives up node n's ownership of an evicted sample. A release that
// cannot reach the directory is queued for replay, so evictions never leave
// permanent stale ownership. The queue is bounded
// (ClusterConfig.DeferredReleaseCap): at the cap the release is dropped and
// counted instead, and the scrubber repairs the orphaned entry on a later
// sweep — a never-healing directory costs bounded memory.
func (cl *Cluster) release(n *clusterNode, id dataset.SampleID) {
	if _, err := n.dir.Release(id, n.id); err == nil {
		return
	}
	if _, queued := cl.deferred[id]; !queued && len(cl.deferred) >= cl.cfg.DeferredReleaseCap {
		cl.res.DroppedReleases++
		return
	}
	cl.deferred[id] = n.id
	cl.res.DeferredReleases++
}

// replayDeferred replays the deferred releases after a successful directory
// operation, best effort: a failure mid-replay keeps the remainder queued.
// Sorted, or the replayed set — and so the whole run — would follow map
// iteration order.
func (cl *Cluster) replayDeferred() {
	if len(cl.deferred) == 0 {
		return
	}
	ids := make([]dataset.SampleID, 0, len(cl.deferred))
	for id := range cl.deferred {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if _, err := cl.dir.Release(id, cl.deferred[id]); err != nil {
			return // still sick
		}
		delete(cl.deferred, id)
		cl.res.ReplayedReleases++
	}
}
