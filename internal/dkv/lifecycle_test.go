package dkv

// The lifecycle steps, once: every scenario the virtual-clock cluster and the
// wall-clock server used to test on their own copies runs here against the
// one copy, over an in-process directory in a virtual-clock bubble and a
// fake resident view. What is left in internal/icache and internal/rpc is about
// their drivers (virtual time and faults; tickers, locks, the payload store).

import (
	"errors"
	"slices"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/metrics"
	"icache/internal/vt"
)

// fakeCache is a resident view over a set: dropped records why each
// directed drop happened.
type fakeCache struct {
	ids     map[dataset.SampleID]bool
	dropped map[dataset.SampleID]DropReason
}

func cacheOf(ids ...dataset.SampleID) *fakeCache {
	c := &fakeCache{ids: map[dataset.SampleID]bool{}, dropped: map[dataset.SampleID]DropReason{}}
	for _, id := range ids {
		c.ids[id] = true
	}
	return c
}

func (c *fakeCache) Residents(dst []dataset.SampleID) []dataset.SampleID {
	n := len(dst)
	for id := range c.ids {
		dst = append(dst, id)
	}
	slices.Sort(dst[n:])
	return dst
}

func (c *fakeCache) Resident(id dataset.SampleID) bool { return c.ids[id] }

func (c *fakeCache) DropFor(id dataset.SampleID, why DropReason) bool {
	had := c.ids[id]
	delete(c.ids, id)
	c.dropped[id] = why
	return had
}

// probedDir records every LookupBatch window and fails Claims past a budget
// (failAfter < 0: never).
type probedDir struct {
	Local
	windows   [][]dataset.SampleID
	claims    int
	failAfter int
}

var errDirDown = errors.New("directory down")

func (p *probedDir) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	p.windows = append(p.windows, slices.Clone(ids))
	return p.Local.LookupBatch(ids)
}

func (p *probedDir) Claim(id dataset.SampleID, node NodeID) (bool, error) {
	if p.failAfter >= 0 && p.claims >= p.failAfter {
		return false, errDirDown
	}
	p.claims++
	return p.Local.Claim(id, node)
}

func seq(n int) []dataset.SampleID {
	ids := make([]dataset.SampleID, n)
	for i := range ids {
		ids[i] = dataset.SampleID(i)
	}
	return ids
}

func TestMemberSteps(t *testing.T) {
	const self, peer = NodeID(0), NodeID(1)
	steps := []struct {
		name string
		run  func(t *testing.T, dir *Directory, advance func(time.Duration), svc *probedDir)
	}{
		// One sweep over three fabricated drift states: an orphaned entry
		// (owned, not cached), an unregistered resident (cached, not owned)
		// and a duplicate (cached here, owned by a peer).
		{"scrub repairs directory drift", func(t *testing.T, dir *Directory, _ func(time.Duration), svc *probedDir) {
			cache := cacheOf(7, 9)
			dir.Claim(5, self)
			dir.Claim(9, peer)
			_, d, err := Member{Dir: svc, ID: self, Cache: cache}.Scrub(0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := dir.Lookup(5); ok {
				t.Error("orphaned entry 5 not released")
			}
			if owner, ok := dir.Lookup(7); !ok || owner != self {
				t.Errorf("unregistered resident 7 owner = (%d, %v), want (%d, true)", owner, ok, self)
			}
			if why, ok := cache.dropped[9]; !ok || why != DropScrub || cache.ids[9] {
				t.Errorf("duplicate 9: dropped=%v reason=%v", ok, why)
			}
			if owner, _ := dir.Lookup(9); owner != peer {
				t.Errorf("the drop of 9 released the peer's ownership (owner %d)", owner)
			}
			want := metrics.MembershipStats{ScrubReleased: 1, ScrubReclaimed: 1, ScrubDropped: 1, ScrubSweeps: 1}
			if d != want {
				t.Errorf("delta = %+v, want %+v", d, want)
			}
			if len(svc.windows) != 1 {
				t.Errorf("the sweep probed ownership in %d lookups, want one batch", len(svc.windows))
			}
		}},
		// Renewal inside the lease succeeds; once the node is declared dead
		// and a peer reclaims one of its samples, the next heartbeat is
		// rejected, the node re-registers, and the reconciliation drops the
		// local copy of the sample it lost.
		{"lapsed lease re-registers and reconciles", func(t *testing.T, dir *Directory, advance func(time.Duration), svc *probedDir) {
			cache := cacheOf(seq(30)...)
			m := Member{Dir: svc, ID: self, TTL: ttl, Cache: cache}
			if d, err := m.Rejoin(); err != nil || d.Registers != 1 || d.ReplayedClaims != 30 {
				t.Fatalf("boot: %+v, %v", d, err)
			}
			advance(ttl / 2)
			if d, err := m.Heartbeat(); err != nil || d != (metrics.MembershipStats{Heartbeats: 1}) {
				t.Fatalf("in-lease renewal: %+v, %v", d, err)
			}
			advance(ttl + suspect + ttl)
			if !dir.Claim(0, peer) {
				t.Fatal("peer could not reclaim a dead node's sample")
			}
			d, err := m.Heartbeat()
			want := metrics.MembershipStats{HeartbeatRejects: 1, Registers: 1, ReplayedClaims: 29, ReplayDenied: 1}
			if err != nil || d != want {
				t.Errorf("lapsed heartbeat: %+v, %v; want %+v", d, err, want)
			}
			if cache.ids[0] || cache.dropped[0] != DropCheckpointDenied {
				t.Error("local copy of the reclaimed sample survived reconciliation")
			}
			if owner, ok := dir.Lookup(0); !ok || owner != peer {
				t.Errorf("sample 0 owner = (%d, %v), want (%d, true)", owner, ok, peer)
			}
			if dir.Membership().Revivals == 0 {
				t.Error("directory recorded no revival for the returning node")
			}
		}},
		// A restarted node replays a claim per restored resident; what a
		// peer took over meanwhile is denied and dropped, never duplicated.
		{"rejoin drops what a survivor owns", func(t *testing.T, dir *Directory, _ func(time.Duration), svc *probedDir) {
			for _, id := range seq(5) {
				dir.Claim(id, peer)
			}
			cache := cacheOf(seq(50)...)
			d, err := Member{Dir: svc, ID: self, Cache: cache}.Rejoin()
			if err != nil || d.ReplayDenied != 5 || d.ReplayedClaims != 45 {
				t.Errorf("rejoin: %+v, %v; want 45 replayed, 5 denied", d, err)
			}
			if cache.ids[0] || !cache.ids[10] {
				t.Error("kept a peer-owned sample or lost a re-claimed one")
			}
			if owner, ok := dir.Lookup(10); !ok || owner != self {
				t.Errorf("sample 10 owner = (%d, %v), want (%d, true)", owner, ok, self)
			}
		}},
		// A step stops at the first directory error and returns what it got
		// done; the next firing starts over.
		{"a directory error cuts the step short", func(t *testing.T, dir *Directory, _ func(time.Duration), svc *probedDir) {
			svc.failAfter = 3
			m := Member{Dir: svc, ID: self, Cache: cacheOf(seq(10)...)}
			d, err := m.Rejoin()
			if !errors.Is(err, errDirDown) || d.Registers != 1 || d.ReplayedClaims != 3 {
				t.Errorf("cut short: %+v, %v; want 1 register, 3 claims, errDirDown", d, err)
			}
			if mark, d, err := m.Scrub(2, 4); !errors.Is(err, errDirDown) || mark != 2 || d.ScrubSweeps != 0 {
				t.Errorf("failed sweep: mark=%d %+v %v; want the watermark kept, no sweep counted", mark, d, err)
			}
			svc.failAfter = -1
			if d, err = m.Rejoin(); err != nil || d.ReplayedClaims != 10 {
				t.Errorf("retry: %+v, %v; want all 10 claimed", d, err)
			}
		}},
		// The cursor walks the sorted resident set: N bounded sweeps visit
		// every resident exactly once, whatever order the cache's own maps
		// iterate in.
		{"bounded sweeps cover every resident once", func(t *testing.T, dir *Directory, _ func(time.Duration), svc *probedDir) {
			m := Member{Dir: svc, ID: self, Cache: cacheOf(seq(12)...)}
			if _, err := m.Reconcile(); err != nil {
				t.Fatal(err)
			}
			mark := dataset.SampleID(0)
			for sweep := 0; sweep < 3; sweep++ {
				var err error
				if mark, _, err = m.Scrub(mark, 4); err != nil {
					t.Fatal(err)
				}
			}
			if got := slices.Concat(svc.windows...); !slices.Equal(got, seq(12)) || mark != 0 {
				t.Errorf("three sweeps of 4 probed %v (mark %d), want 0..11 once each", got, mark)
			}
		}},
		// A release lost above the first batch of owned entries is still
		// repaired: the sweeps walk the owned entries as they walk the
		// residents, not just the lowest batch of them.
		{"a lost release past the first batch is repaired", func(t *testing.T, dir *Directory, _ func(time.Duration), svc *probedDir) {
			const owned, batch = 1000, 256
			cache := cacheOf(seq(owned)...)
			m := Member{Dir: svc, ID: self, Cache: cache}
			if _, err := m.Reconcile(); err != nil {
				t.Fatal(err)
			}
			delete(cache.ids, 900) // evicted; the release never reached the directory
			mark := dataset.SampleID(0)
			for sweep := 1; ; sweep++ {
				var err error
				if mark, _, err = m.Scrub(mark, batch); err != nil {
					t.Fatal(err)
				}
				if _, ok := dir.Lookup(900); !ok {
					break
				}
				if sweep == (owned+batch-1)/batch+1 {
					t.Fatalf("id 900 still registered to the node after %d sweeps", sweep)
				}
			}
		}},
	}
	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			vt.Run(t, func(t *testing.T) {
				dir, advance := clockedDir()
				tc.run(t, dir, advance, &probedDir{Local: Local{Dir: dir}, failAfter: -1})
			})
		})
	}
}
