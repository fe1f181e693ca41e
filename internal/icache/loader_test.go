package icache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"icache/internal/dataset"
	"icache/internal/sampling"
)

func loaderFixture(t *testing.T) (*loader, *sampling.HList, *hcache, *lcache) {
	t.Helper()
	ld := newLoader(testSpec(), 64*1000, rand.New(rand.NewSource(3)))
	// H-list covers ids 0..999.
	items := make([]sampling.Item, 0, 1000)
	for id := dataset.SampleID(0); id < 1000; id++ {
		items = append(items, sampling.Item{ID: id, IV: 1})
	}
	hl := sampling.NewHList(items)
	h := newHCache(10_000)
	l := newLCache(256 * 1000)
	return ld, hl, h, l
}

func TestLoaderComposeSkipsHAndCached(t *testing.T) {
	ld, hl, h, l := loaderFixture(t)
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
	ld, hl, h, l := loaderFixture(t)
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
	ld, hl, h, l := loaderFixture(t)
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
	ld, hl, h, l := loaderFixture(t)
	ld.recordMiss(5) // id 5 is on the H-list: must not be packed as L
	ids, _ := ld.composePackage(hl, h, l)
	for _, id := range ids {
		if id == 5 {
			t.Fatal("H-sample packed into an L package")
		}
	}
}

// loaderServer is an engine whose L-cache holds two packages: 10 % of a 1 MB
// capacity over the 1000-byte test samples, so 50 members a package. It
// serves no substitute, so only the loading thread and the test move the
// L-cache's residents; repack stands in for repackPerSample.
func loaderServer(t *testing.T, repack time.Duration) *Server {
	t.Helper()
	cfg := DefaultConfig(1_000_000)
	cfg.Substitute = SubstituteNone
	srv, err := NewServer(testBackend(t), cfg, sampling.DefaultIIS(), 42)
	if err != nil {
		t.Fatal(err)
	}
	srv.vt.repack = repack
	return srv
}

func TestLoaderDeliversOverTime(t *testing.T) {
	srv := loaderServer(t, repackPerSample)
	srv.StartEpoch(0)
	if v := srv.View(); v.Packages != 1 || !v.Loading || v.LoaderUseful != 0 {
		t.Fatalf("at the epoch start: %d packages, loading %v, %d bytes landed; want one in flight and none landed",
			v.Packages, v.Loading, v.LoaderUseful)
	}
	srv.FetchBatch(time.Minute, []dataset.SampleID{4999})
	if v := srv.View(); v.LoaderUseful == 0 || v.LLen == 0 {
		t.Fatalf("a minute on, %d bytes landed and %d L-residents", v.LoaderUseful, v.LLen)
	}
}

func TestLoaderRepackThrottles(t *testing.T) {
	// Same horizon, one loader throttled: it must land fewer bytes.
	fast, slow := loaderServer(t, 0), loaderServer(t, 5*time.Millisecond)
	for _, srv := range []*Server{fast, slow} {
		srv.StartEpoch(0)
		for now := time.Duration(0); now <= 200*time.Millisecond; now += 10 * time.Millisecond {
			srv.FetchBatch(now, []dataset.SampleID{4999})
			drainUnused(srv.l)
		}
	}
	if f, s := fast.View().LoaderUseful, slow.View().LoaderUseful; s >= f {
		t.Fatalf("throttled loader landed %d B ≥ unthrottled %d B", s, f)
	}
}

// drainUnused consumes every unused resident so the loader has room.
func drainUnused(l *lcache) {
	rng := rand.New(rand.NewSource(1))
	for {
		if _, ok := l.substitute(rng); !ok {
			return
		}
	}
}

// An L-cache full of unused residents stops the loading thread: no package is
// composed, however far the clock runs, until consumption makes room.
func TestLoaderGatedWhenNoRoom(t *testing.T) {
	srv := loaderServer(t, repackPerSample)
	srv.StartEpoch(0)
	srv.load(time.Minute) // two packages fill the L-cache
	if v := srv.View(); v.Packages != 2 || v.Loading {
		t.Fatalf("a minute on: %d packages, loading %v; want 2 landed and none in flight", v.Packages, v.Loading)
	}
	srv.load(time.Hour)
	if v := srv.View(); v.Packages != 2 {
		t.Fatalf("loader composed %d packages; the L-cache cannot absorb a third", v.Packages)
	}
	drainUnused(srv.l)
	srv.load(time.Hour)
	if v := srv.View(); v.Packages != 3 || !v.Loading {
		t.Fatalf("after consumption: %d packages, loading %v; want a third in flight", v.Packages, v.Loading)
	}
}

// A package composed after a no-room wait starts no earlier than the previous
// package's end plus its members' re-pack (50 × repackPerSample = 85 ms),
// though the request that composes it comes sooner: the wait does not skip
// the re-pack throttle.
func TestLoaderNoRoomWaitKeepsTheRepack(t *testing.T) {
	srv := loaderServer(t, repackPerSample)
	srv.StartEpoch(0)
	// Step the clock until the second package lands and finds no room: at is
	// then within a millisecond of its end.
	at := time.Duration(0)
	for srv.View().Loading {
		at += time.Millisecond
		srv.load(at)
	}
	landed := srv.View().LoaderUseful
	drainUnused(srv.l)
	srv.load(at) // composes the third package
	srv.load(at + 40*time.Millisecond)
	if v := srv.View(); v.Packages != 3 || v.LoaderUseful != landed {
		t.Fatalf("40 ms after the wait: %d packages, %d B landed (%d before); the third must not land inside the second's re-pack",
			v.Packages, v.LoaderUseful, landed)
	}
	srv.load(at + 200*time.Millisecond)
	if v := srv.View(); v.LoaderUseful <= landed {
		t.Fatalf("200 ms after the wait the third package has not landed (%d B)", v.LoaderUseful)
	}
}

// Property: packages never contain duplicates, never exceed the unit, and
// never include H-list or cached samples.
func TestLoaderComposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ld := newLoader(testSpec(), 32*1000, rng)
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
