package icache

import (
	"bytes"
	"fmt"

	"icache/internal/metrics"
	"icache/internal/simclock"
)

// This file drives the node lifecycle on the cluster's virtual clock: when a
// heartbeat or a scrub sweep is due, and crash/rejoin. What a heartbeat, a
// rejoin and a sweep DO is dkv/lifecycle.go, the steps rpc.Server fires from
// its wall-clock tickers; the directory half (lease state, reclaim, purge)
// is dkv/membership.go.
//
// FetchBatchOn calls tick before serving each request, and tick runs
// whatever background work has come due. That keeps the simulation
// single-threaded and deterministic — maintenance happens at reproducible
// instants, interleaved with the foreground exactly the same way for a
// given seed and drive sequence.

// tick advances the cluster's virtual clock and fires node n's two
// membership tickers: a lease heartbeat every HeartbeatInterval and one
// bounded anti-entropy sweep every ScrubInterval.
func (cl *Cluster) tick(n *clusterNode, at simclock.Time) {
	cl.clock(at)
	if at >= n.nextHeartbeat {
		n.nextHeartbeat = at + cl.cfg.HeartbeatInterval
		cl.noteStep(cl.member(n).Heartbeat())
	}
	if at >= n.nextScrub {
		n.nextScrub = at + cl.cfg.ScrubInterval
		mark, d, err := cl.member(n).Scrub(n.scrubMark, cl.cfg.ScrubBatch)
		n.scrubMark = mark
		cl.noteStep(d, err)
	}
}

// KillNode crashes node at virtual time at — the simulation's SIGKILL. The
// node's cache memory and in-flight loader packages vanish without firing
// eviction hooks (a crash is not an eviction: the node cannot release
// directory ownership it can no longer vouch for), so its directory entries
// go stale until its lease expires and survivors reclaim them on the demand
// path, the scrubber purges them, or the node rejoins and re-claims what is
// still unowned. Killing a dead node is a no-op.
func (cl *Cluster) KillNode(node int, at simclock.Time) {
	n := cl.node(node)
	if !n.alive {
		return
	}
	cl.clock(at)
	n.alive = false
	cl.retired.Add(n.srv.Stats())
	n.srv, _ = cl.newNodeServer(n) // the config built a server before
}

// NodeAlive reports whether node is currently running.
func (cl *Cluster) NodeAlive(node int) bool { return cl.nodes[node].alive }

// NodeCheckpoint is one node's Server.Checkpoint — the file the RPC server
// persists to disk: resident IDs, importance values and the H-list, no
// payloads.
type NodeCheckpoint struct {
	Node  int
	State []byte
}

// SnapshotNode captures node's current cache state.
func (cl *Cluster) SnapshotNode(node int) NodeCheckpoint {
	var buf bytes.Buffer
	if err := cl.node(node).srv.Checkpoint(&buf); err != nil {
		panic("icache: checkpoint into memory: " + err.Error())
	}
	return NodeCheckpoint{Node: node, State: buf.Bytes()}
}

// RestartNode boots a crashed node at virtual time at the way icache-server
// boots: restore the checkpoint taken before the crash, if there is one,
// then take a fresh lease and replay an ownership claim per restored
// resident. A claim the directory denies means a survivor reclaimed the
// sample while this node was down — the restored copy is dropped, preserving
// the no-duplication invariant. The restored H-list is the checkpoint's (an
// empty one without a checkpoint) until the next BeginEpoch pushes the
// current one. Restarting a live node is an error.
func (cl *Cluster) RestartNode(node int, at simclock.Time, ckpt *NodeCheckpoint) error {
	n := cl.node(node)
	if n.alive {
		return fmt.Errorf("icache: RestartNode(%d): node is already running", node)
	}
	if ckpt != nil {
		if ckpt.Node != node {
			return fmt.Errorf("icache: RestartNode(%d): checkpoint belongs to node %d", node, ckpt.Node)
		}
		if err := n.srv.RestoreCheckpoint(bytes.NewReader(ckpt.State)); err != nil {
			return err
		}
	}
	cl.clock(at)
	cl.boot(n, at)
	return nil
}

// Membership reports the cluster's node-lifecycle counters: the node-side
// scrub and replay work merged with the directories' lease accounting — in
// a partitioned deployment, summed over every replica (each replica leases
// every node, so e.g. Registers counts node×replica grants).
func (cl *Cluster) Membership() metrics.MembershipStats {
	ms := cl.mem
	// Lease traffic is counted at its source below; a networked node counts
	// its own because it cannot read the directory's table.
	ms.Registers, ms.Heartbeats, ms.HeartbeatRejects = 0, 0, 0
	for _, d := range cl.rawDirs {
		ms.Add(d.Membership())
	}
	return ms
}
