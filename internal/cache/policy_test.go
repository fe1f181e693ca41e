package cache

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"icache/internal/dataset"
)

func TestLRUBasicHitMiss(t *testing.T) {
	l := NewLRU(100)
	if l.Touch(1) {
		t.Fatal("hit on empty cache")
	}
	if !l.Admit(1, 40) {
		t.Fatal("admit failed with room")
	}
	if !l.Touch(1) {
		t.Fatal("miss after admit")
	}
	if l.Len() != 1 || l.used != 40 {
		t.Fatalf("len=%d used=%d", l.Len(), l.used)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	l := NewLRU(100)
	l.Admit(1, 40)
	l.Admit(2, 40)
	l.Touch(1)     // 2 is now least recent
	l.Admit(3, 40) // must evict 2
	if l.Contains(2) {
		t.Fatal("LRU evicted wrong victim")
	}
	if !l.Contains(1) || !l.Contains(3) {
		t.Fatal("LRU evicted a recent entry")
	}
	if l.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", l.Evictions())
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	l := NewLRU(100)
	l.Admit(1, 60)
	if l.Admit(2, 150) {
		t.Fatal("oversized sample admitted")
	}
	if !l.Contains(1) {
		t.Fatal("oversized admit flushed the cache")
	}
}

func TestLRUReAdmitTouches(t *testing.T) {
	l := NewLRU(100)
	l.Admit(1, 40)
	l.Admit(2, 40)
	l.Admit(1, 40) // refresh 1
	l.Admit(3, 40) // must evict 2, not 1
	if l.Contains(2) || !l.Contains(1) {
		t.Fatal("re-admit did not refresh recency")
	}
}

func TestLRURemove(t *testing.T) {
	l := NewLRU(100)
	l.Admit(1, 40)
	if !l.Remove(1) || l.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	if l.used != 0 {
		t.Fatalf("used = %d after remove", l.used)
	}
}

func TestLRUResidentsMRUOrder(t *testing.T) {
	l := NewLRU(1000)
	l.Admit(1, 10)
	l.Admit(2, 10)
	l.Admit(3, 10)
	l.Touch(1)
	got := l.Residents(nil)
	want := []dataset.SampleID{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("residents = %v, want %v", got, want)
		}
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	l := NewLFU(100)
	l.Admit(1, 40)
	l.Admit(2, 40)
	l.Touch(1)
	l.Touch(1)
	l.Admit(3, 40) // evicts 2 (freq 1) not 1 (freq 3)
	if l.Contains(2) || !l.Contains(1) || !l.Contains(3) {
		t.Fatal("LFU evicted wrong victim")
	}
	if l.Evictions() != 1 {
		t.Fatalf("evictions = %d", l.Evictions())
	}
}

func TestLFUTieBreaksFIFO(t *testing.T) {
	l := NewLFU(100)
	l.Admit(1, 40)
	l.Admit(2, 40)
	l.Admit(3, 40) // both at freq 1 → evict the older (1)
	if l.Contains(1) || !l.Contains(2) {
		t.Fatal("LFU tie-break not FIFO")
	}
}

func TestLFURemoveAndReAdd(t *testing.T) {
	l := NewLFU(100)
	l.Admit(1, 40)
	l.Touch(1)
	if !l.Remove(1) {
		t.Fatal("Remove failed")
	}
	if l.Touch(1) {
		t.Fatal("hit after remove")
	}
	l.Admit(1, 40) // fresh entry, freq resets
	l.Admit(2, 40)
	l.Touch(2)
	l.Admit(3, 40) // evicts 1 (freq 1)
	if l.Contains(1) {
		t.Fatal("re-added entry kept stale frequency")
	}
}

func TestMinIONeverEvicts(t *testing.T) {
	m := NewMinIO(100)
	if !m.Admit(1, 60) || !m.Admit(2, 40) {
		t.Fatal("admits with room failed")
	}
	if m.Admit(3, 1) {
		t.Fatal("MinIO admitted past capacity")
	}
	if !m.Contains(1) || !m.Contains(2) {
		t.Fatal("MinIO lost an entry")
	}
	if m.Evictions() != 0 {
		t.Fatal("MinIO evicted")
	}
	if !m.Touch(1) || m.Touch(3) {
		t.Fatal("Touch wrong")
	}
}

func TestUnboundedAdmitsEverything(t *testing.T) {
	u := NewUnbounded()
	for i := 0; i < 1000; i++ {
		if !u.Admit(dataset.SampleID(i), 1<<20) {
			t.Fatal("unbounded rejected")
		}
	}
	if u.Len() != 1000 || u.used != 1000<<20 || u.Evictions() != 0 {
		t.Fatalf("len=%d used=%d evictions=%d", u.Len(), u.used, u.Evictions())
	}
	if !u.Remove(5) || u.Contains(5) {
		t.Fatal("Remove wrong")
	}
}

// ledgerPolicies is every policy the package builds, by its constructor.
// Bounded ones take a byte budget; Unbounded and None take none.
var ledgerPolicies = []struct {
	name    string
	mk      func(capacityBytes int64) *Policy
	bounded bool
}{
	{"lru", NewLRU, true},
	{"fifo", NewFIFO, true},
	{"lfu", NewLFU, true},
	{"clock", NewClock, true},
	{"minio", NewMinIO, true},
	{"unbounded", func(int64) *Policy { return NewUnbounded() }, false},
	{"none", func(int64) *Policy { return None() }, false},
}

func TestAdmitZeroSizePanics(t *testing.T) {
	for _, tc := range ledgerPolicies {
		for _, size := range []int{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Admit(_, %d) did not panic", tc.name, size)
					}
				}()
				tc.mk(10).Admit(1, size)
			}()
		}
	}
}

func TestNewPolicyZeroCapacityPanics(t *testing.T) {
	for _, tc := range ledgerPolicies {
		if !tc.bounded {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero capacity did not panic", tc.name)
				}
			}()
			tc.mk(0)
		}()
	}
	if p := None(); p.Len() != 0 || p.budget != 0 {
		t.Fatalf("None: len=%d budget=%d", p.Len(), p.budget)
	}
}

// sameLedger reports whether two policies hold the same residents in the
// same order (as a set for the policies without one) and the same bytes.
func sameLedger(a, b *Policy) bool {
	ra, rb := a.Residents(nil), b.Residents(nil)
	if a.order == nil {
		slices.Sort(ra)
		slices.Sort(rb)
	}
	return slices.Equal(ra, rb) && a.used == b.used && a.Evictions() == b.Evictions()
}

// Property: under arbitrary workloads every policy keeps its ledger. The
// budget is never exceeded and the used bytes are the residents' sizes; Len
// is the number of residents, none listed twice; a sample larger than the
// budget is refused and changes nothing; and re-admitting a resident is a
// touch, checked against a twin that touches instead.
func TestPolicyCapacityInvariantProperty(t *testing.T) {
	for _, tc := range ledgerPolicies {
		tc := tc
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p, twin := tc.mk(5000), tc.mk(5000)
			sizes := map[dataset.SampleID]int{}
			for op := 0; op < 1000; op++ {
				id := dataset.SampleID(rng.Intn(200))
				switch rng.Intn(5) {
				case 0:
					size := 1 + rng.Intn(500)
					fresh := !p.Contains(id)
					if p.Admit(id, size) != twin.Admit(id, size) {
						return false
					}
					if fresh && p.Contains(id) {
						sizes[id] = size
					}
				case 1:
					if p.Touch(id) != twin.Touch(id) {
						return false
					}
				case 2:
					if p.Remove(id) != twin.Remove(id) {
						return false
					}
				case 3:
					res := p.Residents(nil)
					if len(res) == 0 {
						continue
					}
					r := res[rng.Intn(len(res))]
					if !p.Admit(r, 1+rng.Intn(500)) || !twin.Touch(r) {
						return false
					}
				case 4:
					if p.budget == math.MaxInt64 {
						continue
					}
					n, used := p.Len(), p.used
					if p.Admit(1000, int(p.budget)+1) || p.Len() != n || p.used != used {
						return false
					}
				}
				if p.used > p.budget || !sameLedger(p, twin) {
					return false
				}
			}
			res := p.Residents(nil)
			if len(res) != p.Len() {
				return false
			}
			seen := map[dataset.SampleID]bool{}
			var used int64
			for _, id := range res {
				if seen[id] || !p.Contains(id) {
					return false
				}
				seen[id] = true
				used += int64(sizes[id])
			}
			return used == p.used
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// Property: LFU pops victims in nondecreasing frequency order at eviction
// time relative to the remaining set (checked via repeated fills).
func TestLFUHeapOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLFU(10 * 100)
		freq := map[dataset.SampleID]int{}
		for i := 0; i < 10; i++ {
			id := dataset.SampleID(i)
			l.Admit(id, 100)
			freq[id] = 1
			for k := rng.Intn(5); k > 0; k-- {
				l.Touch(id)
				freq[id]++
			}
		}
		// Admitting one more evicts exactly the min-frequency (FIFO-tied) id.
		minID, minF := dataset.SampleID(-1), 1<<30
		for i := 0; i < 10; i++ {
			id := dataset.SampleID(i)
			if freq[id] < minF {
				minID, minF = id, freq[id]
			}
		}
		l.Admit(100, 100)
		return !l.Contains(minID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
