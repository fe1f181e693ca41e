package dkv

import (
	"sort"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/simclock"
)

// Lease-based membership for the shared directory (§III-E grown to survive
// node death). A cache node registers with a TTL lease and renews it with
// heartbeats; a node whose lease lapses transitions Live → Suspect (still
// routable: it may just be slow to heartbeat) and, once the suspect window
// also lapses, Suspect → Dead. Lookups never route to a Dead node, Claim
// treats a Dead node's entry as reclaimable (first claimer wins), and a
// bounded PurgeDead sweep garbage-collects whatever nobody reclaims.
//
// Nodes that never register — the legacy static-membership deployments and
// the pre-lifecycle test suites — are treated as permanently Live, so lease
// semantics are strictly opt-in.

// NodeState is a node's liveness as derived from its lease.
type NodeState uint8

const (
	// NodeLive means the node's lease is current (or the node never
	// registered, i.e. legacy static membership).
	NodeLive NodeState = iota
	// NodeSuspect means the lease expired less than the suspect window ago:
	// the node is still routed to, but its next heartbeat will be rejected
	// and it must re-register.
	NodeSuspect
	// NodeDead means the lease expired more than the suspect window ago:
	// the node is never routed to and its directory entries are reclaimable.
	NodeDead
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeLive:
		return "live"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	default:
		return "unknown"
	}
}

// NodeInfo describes one registered node's membership state. ExpiresIn is
// the lease time remaining relative to the directory's clock (negative once
// the lease has lapsed), so it transports cleanly between machines whose
// clocks disagree.
type NodeInfo struct {
	ID        NodeID
	State     NodeState
	ExpiresIn time.Duration
}

// Membership timing defaults. DefaultLeaseTTL is deliberately much longer
// than a heartbeat interval (a healthy node renews several times per TTL)
// and DefaultSuspectWindow gives a slow node one extra TTL of routability
// before its entries become reclaimable.
const (
	DefaultLeaseTTL      = 10 * time.Second
	DefaultSuspectWindow = DefaultLeaseTTL
)

// lease is one registered node's lease record.
type lease struct {
	ttl     time.Duration
	expires simclock.Time
	state   NodeState // last observed state, for transition counting
}

// SetMembershipParams overrides the default lease TTL (used when Register
// is called with ttl <= 0) and the suspect window. Non-positive values keep
// the current settings.
func (d *Directory) SetMembershipParams(defaultTTL, suspectWindow time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if defaultTTL > 0 {
		d.defaultTTL = defaultTTL
	}
	if suspectWindow > 0 {
		d.suspectWindow = suspectWindow
	}
}

// now reads the directory clock: time since construction.
func (d *Directory) now() simclock.Time { return simclock.Time(time.Since(d.start)) }

// stateAt derives a lease's state at the given time. A lease is valid for
// the half-open window [grant, grant+ttl): a heartbeat arriving exactly at
// expiry is too late.
func (l *lease) stateAt(now simclock.Time, suspectWindow time.Duration) NodeState {
	switch {
	case now < l.expires:
		return NodeLive
	case now < l.expires+suspectWindow:
		return NodeSuspect
	default:
		return NodeDead
	}
}

// stateOf reports node's current state (mu held). Unregistered nodes are
// permanently Live (legacy static membership).
func (d *Directory) stateOf(node NodeID, now simclock.Time) NodeState {
	l, ok := d.nodes[node]
	if !ok {
		return NodeLive
	}
	return l.stateAt(now, d.suspectWindow)
}

// syncStates records Live→Suspect→Dead transitions in the membership
// counters (mu held). Derived state makes transitions observable only when
// someone looks, so every public membership/data operation calls this first.
func (d *Directory) syncStates(now simclock.Time) {
	for id, l := range d.nodes {
		st := l.stateAt(now, d.suspectWindow)
		if st == l.state {
			continue
		}
		// A node can be observed to have jumped Live→Dead in one step (no
		// operation happened during its suspect window); count both edges so
		// Suspects ≥ Deaths always holds.
		if l.state == NodeLive && st != NodeLive {
			d.ms.Suspects++
		}
		if st == NodeDead {
			d.ms.Deaths++
		}
		d.journal.Add(obs.EventMembership, int64(id), int64(l.state), int64(st),
			l.state.String()+"→"+st.String())
		l.state = st
	}
}

// Register grants (or re-grants) node a lease of the given TTL; ttl <= 0
// selects the directory default. Registration always succeeds and revives a
// Suspect or Dead node to Live — but any entries already reclaimed by other
// nodes stay reclaimed, so a rejoining node must re-claim its contents (see
// the scrubber) rather than assume old ownership.
func (d *Directory) Register(node NodeID, ttl time.Duration) NodeInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	d.syncStates(now)
	if ttl <= 0 {
		ttl = d.defaultTTL
	}
	l, ok := d.nodes[node]
	if !ok {
		l = &lease{}
		d.nodes[node] = l
	} else if l.state != NodeLive {
		d.ms.Revivals++
		d.journal.Add(obs.EventMembership, int64(node), int64(l.state), int64(NodeLive),
			l.state.String()+"→live (revival)")
	}
	l.ttl = ttl
	l.expires = now + ttl
	l.state = NodeLive
	d.ms.Registers++
	return NodeInfo{ID: node, State: NodeLive, ExpiresIn: ttl}
}

// HeartbeatNode renews node's lease. It reports false — without renewing —
// when the node has no current lease: never registered, or the lease
// already lapsed (a heartbeat arriving exactly at the TTL boundary is too
// late). A false return tells the node to Register again and reconcile its
// ownership, because its entries may have been reclaimed in the meantime.
func (d *Directory) HeartbeatNode(node NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	d.syncStates(now)
	l, ok := d.nodes[node]
	if !ok || l.state != NodeLive {
		d.ms.HeartbeatRejects++
		return false
	}
	l.expires = now + l.ttl
	d.ms.Heartbeats++
	return true
}

// ListNodes reports every registered node's state, sorted by ID.
func (d *Directory) ListNodes() []NodeInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	d.syncStates(now)
	out := make([]NodeInfo, 0, len(d.nodes))
	for id, l := range d.nodes {
		out = append(out, NodeInfo{ID: id, State: l.state, ExpiresIn: time.Duration(l.expires - now)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OwnedBy reports up to max sample IDs currently owned by node, sorted for
// determinism; max <= 0 means all. The scrubber uses it to find directory
// entries that no longer match cache contents.
func (d *Directory) OwnedBy(node NodeID, max int) []dataset.SampleID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []dataset.SampleID
	for id, owner := range d.owner {
		if owner == node {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// PurgeDead removes up to max directory entries owned by Dead nodes (max <=
// 0 means all), in sorted order for determinism, and reports how many were
// removed. It is the anti-entropy backstop for entries nobody reclaims on
// the demand path.
func (d *Directory) PurgeDead(max int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	d.syncStates(now)
	var doomed []dataset.SampleID
	for id, owner := range d.owner {
		if d.stateOf(owner, now) == NodeDead {
			doomed = append(doomed, id)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	if max > 0 && len(doomed) > max {
		doomed = doomed[:max]
	}
	for _, id := range doomed {
		delete(d.owner, id)
	}
	d.ms.Purged += int64(len(doomed))
	return len(doomed)
}

// Membership reports the directory-side membership counters.
func (d *Directory) Membership() metrics.MembershipStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncStates(d.now())
	return d.ms
}
