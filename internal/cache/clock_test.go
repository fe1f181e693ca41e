package cache

import (
	"testing"

	"icache/internal/dataset"
)

func dsid(i int64) dataset.SampleID { return dataset.SampleID(i) }

func TestFIFOEvictsOldest(t *testing.T) {
	f := NewFIFO(100)
	f.Admit(1, 40)
	f.Admit(2, 40)
	f.Touch(1) // FIFO ignores accesses
	f.Admit(3, 40)
	if f.Contains(1) {
		t.Fatal("FIFO kept the oldest despite a touch")
	}
	if !f.Contains(2) || !f.Contains(3) {
		t.Fatal("FIFO evicted the wrong entry")
	}
	if f.Evictions() != 1 {
		t.Fatalf("evictions = %d", f.Evictions())
	}
}

func TestFIFOResidentsOldestFirst(t *testing.T) {
	f := NewFIFO(1000)
	f.Admit(1, 10)
	f.Admit(2, 10)
	f.Admit(3, 10)
	got := f.Residents(nil)
	for i, want := range []int64{1, 2, 3} {
		if int64(got[i]) != want {
			t.Fatalf("residents = %v", got)
		}
	}
	if !f.Remove(2) || f.Contains(2) {
		t.Fatal("Remove failed")
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock(120)
	c.Admit(1, 40)
	c.Admit(2, 40)
	c.Admit(3, 40)
	c.Touch(2) // 2 gets a second chance
	c.Admit(4, 40)
	if !c.Contains(2) {
		t.Fatal("referenced entry evicted on first pass")
	}
	if c.Contains(1) {
		t.Fatal("unreferenced oldest survived")
	}
}

func TestClockAllReferencedStillEvicts(t *testing.T) {
	c := NewClock(120)
	c.Admit(1, 40)
	c.Admit(2, 40)
	c.Admit(3, 40)
	for _, id := range []int64{1, 2, 3} {
		c.Touch(dsid(id))
	}
	// A full pass clears bits, then evicts; must not loop forever.
	c.Admit(4, 40)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if !c.Contains(4) {
		t.Fatal("new entry not admitted")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestClockRemoveKeepsRingConsistent(t *testing.T) {
	c := NewClock(1000)
	for i := int64(0); i < 10; i++ {
		c.Admit(dsid(i), 50)
	}
	for i := int64(0); i < 10; i += 2 {
		if !c.Remove(dsid(i)) {
			t.Fatalf("remove %d failed", i)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	res := c.Residents(nil)
	if len(res) != 5 {
		t.Fatalf("residents = %v", res)
	}
	for _, id := range res {
		if int64(id)%2 == 0 {
			t.Fatalf("removed entry %d still resident", id)
		}
	}
	// The ring must still evict correctly after the removals.
	c.Admit(dsid(100), 800)
	if c.used > c.budget {
		t.Fatal("over budget after ring surgery")
	}
}
