package dkv

// Lease-expiry edge cases: the half-open lease window, the
// Live→Suspect→Dead derivation, reclamation racing re-registration, and
// concurrent reclaimers of a Dead node's entry. Each runs in a virtual-clock
// bubble (internal/vt), where the directory's lease clock — time since its
// construction — moves only when the test sleeps.

import (
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/vt"
)

// clockedDir returns a directory with a 100ms suspect window (its tests grant
// 100ms leases), and a function that moves the calling bubble's clock to at
// past the directory's construction.
func clockedDir() (*Directory, func(at time.Duration)) {
	d := NewDirectory()
	start := time.Now()
	d.SetMembershipParams(suspect)
	return d, func(at time.Duration) { time.Sleep(at - time.Since(start)) }
}

const (
	ttl     = 100 * time.Millisecond
	suspect = 100 * time.Millisecond
)

// TestLeaseExpiryEdges is the state-derivation table: a lease is valid for
// the half-open window [grant, grant+ttl), suspect for one suspect window
// past that, then dead.
func TestLeaseExpiryEdges(t *testing.T) {
	cases := []struct {
		name      string
		at        time.Duration // observation instant after a grant at t=0
		state     NodeState
		heartbeat bool // is a heartbeat at this instant accepted?
	}{
		{"at grant", 0, NodeLive, true},
		{"mid lease", ttl / 2, NodeLive, true},
		{"last valid instant", ttl - time.Nanosecond, NodeLive, true},
		{"exactly at TTL", ttl, NodeSuspect, false},
		{"mid suspect window", ttl + suspect/2, NodeSuspect, false},
		{"exactly at suspect end", ttl + suspect, NodeDead, false},
		{"long dead", ttl + suspect + time.Hour, NodeDead, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vt.Run(t, func(t *testing.T) {
				d, advance := clockedDir()
				d.Register(1, ttl)
				advance(tc.at)
				nodes := d.ListNodes()
				if len(nodes) != 1 || nodes[0].ID != 1 {
					t.Fatalf("ListNodes = %+v", nodes)
				}
				if nodes[0].State != tc.state {
					t.Errorf("state at +%v = %v, want %v", tc.at, nodes[0].State, tc.state)
				}
				if got := d.HeartbeatNode(1); got != tc.heartbeat {
					t.Errorf("heartbeat at +%v accepted=%v, want %v", tc.at, got, tc.heartbeat)
				}
			})
		})
	}
}

// TestHeartbeatExtendsLease pins renewal arithmetic: each accepted heartbeat
// pushes expiry a full TTL past the renewal instant, not past the grant.
func TestHeartbeatExtendsLease(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		d, advance := clockedDir()
		d.Register(1, ttl)
		for i := 1; i <= 10; i++ {
			advance(time.Duration(i) * (ttl / 2))
			if !d.HeartbeatNode(1) {
				t.Fatalf("renewal %d rejected", i)
			}
		}
		// 10 renewals later the node is still Live well past the original TTL.
		if st := d.ListNodes()[0].State; st != NodeLive {
			t.Fatalf("state after renewals = %v, want live", st)
		}
		ms := d.Membership()
		if ms.Heartbeats != 10 || ms.HeartbeatRejects != 0 {
			t.Errorf("heartbeat counters = %+v, want 10 accepted, 0 rejected", ms)
		}
	})
}

// TestUnregisteredNodesArePermanentlyLive pins the legacy static-membership
// behaviour: nodes that never register are always routable and their entries
// never become reclaimable, but their heartbeats are rejected (they hold no
// lease to renew).
func TestUnregisteredNodesArePermanentlyLive(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		d, advance := clockedDir()
		if !d.Claim(7, 3) {
			t.Fatal("claim by unregistered node failed")
		}
		advance(time.Hour)
		if owner, ok := d.Lookup(7); !ok || owner != 3 {
			t.Fatalf("Lookup(7) = (%d, %v), want (3, true)", owner, ok)
		}
		if d.Claim(7, 4) {
			t.Fatal("entry of an unregistered node was reclaimed")
		}
		if d.HeartbeatNode(3) {
			t.Fatal("heartbeat without a lease accepted")
		}
		if purged := d.PurgeDead(0); purged != 0 {
			t.Fatalf("PurgeDead removed %d entries of an unregistered node", purged)
		}
	})
}

// TestReRegistrationRacesReclamation covers both interleavings around a
// dead node's entry: if the owner re-registers first, its entry is no longer
// reclaimable; if a peer reclaims first, the re-registration does not get
// the entry back and the owner's re-claim is denied.
func TestReRegistrationRacesReclamation(t *testing.T) {
	t.Run("re-register wins", func(t *testing.T) {
		vt.Run(t, func(t *testing.T) {
			d, advance := clockedDir()
			d.Register(1, ttl)
			if !d.Claim(42, 1) {
				t.Fatal("claim failed")
			}
			advance(ttl + suspect) // node 1 is dead
			d.Register(1, ttl)     // ...but rejoins first
			if d.Claim(42, 2) {
				t.Fatal("entry reclaimed from a revived node")
			}
			if owner, ok := d.Lookup(42); !ok || owner != 1 {
				t.Fatalf("Lookup(42) = (%d, %v), want (1, true)", owner, ok)
			}
			if rev := d.Membership().Revivals; rev != 1 {
				t.Errorf("Revivals = %d, want 1", rev)
			}
		})
	})
	t.Run("reclaimer wins", func(t *testing.T) {
		vt.Run(t, func(t *testing.T) {
			d, advance := clockedDir()
			d.Register(1, ttl)
			if !d.Claim(42, 1) {
				t.Fatal("claim failed")
			}
			advance(ttl + suspect)
			if !d.Claim(42, 2) { // peer reclaims the dead node's entry...
				t.Fatal("reclaim of a dead node's entry failed")
			}
			d.Register(1, ttl) // ...then the owner rejoins
			if d.Claim(42, 1) {
				t.Fatal("rejoined node re-took an entry a live peer now owns")
			}
			if owner, ok := d.Lookup(42); !ok || owner != 2 {
				t.Fatalf("Lookup(42) = (%d, %v), want (2, true)", owner, ok)
			}
			ms := d.Membership()
			if ms.Reclaims != 1 {
				t.Errorf("Reclaims = %d, want 1", ms.Reclaims)
			}
		})
	})
}

// TestSuspectEntriesAreNotReclaimable pins the grace period: during the
// suspect window the node is still routable and its entries are protected.
func TestSuspectEntriesAreNotReclaimable(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		d, advance := clockedDir()
		d.Register(1, ttl)
		if !d.Claim(9, 1) {
			t.Fatal("claim failed")
		}
		advance(ttl + suspect/2) // suspect, not dead
		if d.Claim(9, 2) {
			t.Fatal("suspect node's entry was reclaimed")
		}
		if owner, ok := d.Lookup(9); !ok || owner != 1 {
			t.Fatalf("Lookup(9) = (%d, %v), want (1, true)", owner, ok)
		}
		ms := d.Membership()
		if ms.Suspects != 1 || ms.Deaths != 0 {
			t.Errorf("transition counters = %+v, want 1 suspect, 0 deaths", ms)
		}
	})
}

// TestConcurrentReclaimersExactlyOneWins races many claimers for one dead
// node's entry: exactly one transfer succeeds and ownership is consistent.
func TestConcurrentReclaimersExactlyOneWins(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		d, advance := clockedDir()
		d.Register(1, ttl)
		if !d.Claim(5, 1) {
			t.Fatal("claim failed")
		}
		advance(ttl + suspect) // node 1 is dead

		const claimers = 16
		var wg sync.WaitGroup
		wins := make([]bool, claimers)
		for i := 0; i < claimers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wins[i] = d.Claim(5, NodeID(i+2)) // claimers 2..17, all unregistered (live)
			}(i)
		}
		wg.Wait()

		winners := 0
		var winner NodeID
		for i, won := range wins {
			if won {
				winners++
				winner = NodeID(i + 2)
			}
		}
		if winners != 1 {
			t.Fatalf("%d claimers won the dead entry, want exactly 1", winners)
		}
		if owner, ok := d.Lookup(5); !ok || owner != winner {
			t.Fatalf("Lookup(5) = (%d, %v), want (%d, true)", owner, ok, winner)
		}
		if ms := d.Membership(); ms.Reclaims != 1 {
			t.Errorf("Reclaims = %d, want 1", ms.Reclaims)
		}
	})
}

// TestLookupPurgesDeadEntries pins the purge-on-sight path and its counter.
func TestLookupPurgesDeadEntries(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		d, advance := clockedDir()
		d.Register(1, ttl)
		for id := dataset.SampleID(0); id < 5; id++ {
			if !d.Claim(id, 1) {
				t.Fatal("claim failed")
			}
		}
		advance(ttl + suspect)
		if _, ok := d.Lookup(0); ok {
			t.Fatal("lookup routed to a dead node")
		}
		if _, ok := d.Lookup(0); ok {
			t.Fatal("purged entry reappeared")
		}
		// The remaining four go via the PurgeDead backstop, bounded by max.
		if purged := d.PurgeDead(3); purged != 3 {
			t.Fatalf("PurgeDead(3) = %d, want 3", purged)
		}
		if purged := d.PurgeDead(0); purged != 1 {
			t.Fatalf("PurgeDead(0) = %d, want the last entry", purged)
		}
		if n := d.Len(); n != 0 {
			t.Fatalf("%d entries survived purging", n)
		}
		if ms := d.Membership(); ms.Purged != 5 {
			t.Errorf("Purged = %d, want 5", ms.Purged)
		}
	})
}
