package icache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"icache/internal/dataset"
	"icache/internal/sampling"
	"icache/internal/storage"
)

func loaderFixture(t *testing.T, repack time.Duration) (*loader, *sampling.HList, *hcache, *lcache, *storage.Backend) {
	t.Helper()
	back, err := storage.NewBackend(testSpec(), storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(back, 64*1000, repack, rand.New(rand.NewSource(3)))
	// H-list covers ids 0..999.
	items := make([]sampling.Item, 0, 1000)
	for id := dataset.SampleID(0); id < 1000; id++ {
		items = append(items, sampling.Item{ID: id, IV: 1})
	}
	hl := sampling.NewHList(items)
	h := newHCache(10_000)
	l := newLCache(256 * 1000)
	return ld, hl, h, l, back
}

func TestLoaderComposeSkipsHAndCached(t *testing.T) {
	ld, hl, h, l, _ := loaderFixture(t, 0)
	h.offer(2000, 1000, 0.5)
	l.insert(2001, 1000)
	ids, total := ld.composePackage(hl, h, l)
	if total <= 0 || len(ids) == 0 {
		t.Fatal("empty package with plenty of L-samples available")
	}
	if total > ld.pkgBytes {
		t.Fatalf("package %d bytes exceeds unit %d", total, ld.pkgBytes)
	}
	for _, id := range ids {
		if hl.Contains(id) {
			t.Fatalf("package contains H-sample %d", id)
		}
		if id == 2000 || id == 2001 {
			t.Fatalf("package contains already-cached sample %d", id)
		}
	}
}

func TestLoaderRepacksMissesFirst(t *testing.T) {
	ld, hl, h, l, _ := loaderFixture(t, 0)
	missed := []dataset.SampleID{3000, 3001, 3002}
	for _, id := range missed {
		ld.recordMiss(id)
	}
	ld.recordMiss(3000) // duplicate: must not be packed twice
	ids, _ := ld.composePackage(hl, h, l)
	for i, want := range missed {
		if ids[i] != want {
			t.Fatalf("package[%d] = %d, want prioritized miss %d", i, ids[i], want)
		}
	}
	count := 0
	for _, id := range ids {
		if id == 3000 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("missed sample packed %d times", count)
	}
}

// A recorded miss that overflows one package leads the next: the misses
// come out of consecutive packages in the order they were recorded, none
// lost at a package boundary.
func TestLoaderRepacksTheMissThatDidNotFit(t *testing.T) {
	ld, hl, h, l, _ := loaderFixture(t, 0)
	ld.pkgBytes += testSpec().MeanSampleBytes / 2 // 64½ samples: every package overflows
	var missed []dataset.SampleID
	for id := dataset.SampleID(3000); id < 3200; id++ { // three packages' worth and more
		ld.recordMiss(id)
		missed = append(missed, id)
	}
	next := 0
	for pkg := 0; pkg < 8 && next < len(missed); pkg++ {
		ids, _ := ld.composePackage(hl, h, l)
		for _, id := range ids {
			if next < len(missed) && id == missed[next] {
				next++
			}
		}
	}
	if next != len(missed) {
		t.Fatalf("misses re-packed in order up to %d of %d: id %d was lost at a package boundary", next, len(missed), missed[next])
	}
}

func TestLoaderMissedPromotedToHSkipped(t *testing.T) {
	ld, hl, h, l, _ := loaderFixture(t, 0)
	ld.recordMiss(5) // id 5 is on the H-list: must not be packed as L
	ids, _ := ld.composePackage(hl, h, l)
	for _, id := range ids {
		if id == 5 {
			t.Fatal("H-sample packed into an L package")
		}
	}
}

func TestLoaderPumpDeliversOverTime(t *testing.T) {
	ld, hl, h, l, _ := loaderFixture(t, 0)
	ld.pump(0, hl, h, l)
	if ld.packages == 0 {
		t.Fatal("pump issued no packages")
	}
	if l.len() != 0 {
		t.Fatal("packages delivered before their completion time")
	}
	ld.deliver(time.Minute, l)
	if l.len() == 0 {
		t.Fatal("nothing delivered after completion horizon")
	}
}

func TestLoaderRepackThrottles(t *testing.T) {
	// Same horizon, one loader throttled: it must ship fewer samples.
	fast, hlF, hF, lF, _ := loaderFixture(t, 0)
	slow, hlS, hS, lS, _ := loaderFixture(t, 5*time.Millisecond)
	horizon := simclockTime(200 * time.Millisecond)
	for now := simclockTime(0); now <= horizon; now += simclockTime(10 * time.Millisecond) {
		fast.pump(now, hlF, hF, lF)
		fast.deliver(now, lF)
		drainUnused(lF)
		slow.pump(now, hlS, hS, lS)
		slow.deliver(now, lS)
		drainUnused(lS)
	}
	if slow.samples >= fast.samples {
		t.Fatalf("throttled loader shipped %d ≥ unthrottled %d", slow.samples, fast.samples)
	}
}

// drainUnused consumes every unused resident so the loaders always have room.
func drainUnused(l *lcache) {
	rng := rand.New(rand.NewSource(1))
	for {
		if _, ok := l.substitute(rng); !ok {
			return
		}
	}
}

type simclockTime = time.Duration

func TestLoaderGatedWhenNoRoom(t *testing.T) {
	back, err := storage.NewBackend(testSpec(), storage.OrangeFS())
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(back, 64*1000, 0, rand.New(rand.NewSource(3)))
	hl := sampling.NewHList(nil)
	h := newHCache(1000)
	l := newLCache(32 * 1000) // smaller than one package
	ld.pump(0, hl, h, l)
	if ld.packages != 0 {
		t.Fatal("loader issued a package the L-cache cannot absorb")
	}
	if !ld.gated {
		t.Fatal("loader not gated")
	}
}

// Property: packages never contain duplicates, never exceed the unit, and
// never include H-list or cached samples.
func TestLoaderComposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		back, err := storage.NewBackend(testSpec(), storage.OrangeFS())
		if err != nil {
			return false
		}
		ld := newLoader(back, 32*1000, 0, rng)
		var items []sampling.Item
		for i := 0; i < 500; i++ {
			items = append(items, sampling.Item{ID: dataset.SampleID(rng.Intn(testSpec().NumSamples)), IV: 1})
		}
		hl := sampling.NewHList(items)
		h := newHCache(100_000)
		l := newLCache(500_000)
		for i := 0; i < 50; i++ {
			h.offer(dataset.SampleID(rng.Intn(testSpec().NumSamples)), 1000, rng.Float64())
			l.insert(dataset.SampleID(rng.Intn(testSpec().NumSamples)), 1000)
		}
		for i := 0; i < 30; i++ {
			ld.recordMiss(dataset.SampleID(rng.Intn(testSpec().NumSamples)))
		}
		ids, total := ld.composePackage(hl, h, l)
		if total > ld.pkgBytes && len(ids) > 1 {
			return false
		}
		seen := map[dataset.SampleID]bool{}
		for _, id := range ids {
			if seen[id] || hl.Contains(id) || h.contains(id) || l.contains(id) {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
