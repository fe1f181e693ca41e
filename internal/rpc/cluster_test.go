package rpc

// The distributed node lifecycle, fault-tested on the shipped stack: two
// cache nodes (Server, with their membership loops) and directory servers
// (dkv.DirServer) on an in-memory network inside a virtual-clock bubble
// (internal/vt). One trainer draws each epoch's IIS schedule from a fixed
// importance profile, crosses the boundary on every live node and reads the
// batches round-robin over them, a compute step per batch, while the
// scenarios below break the directory and the peer plane, kill a node and
// bring it back from its checkpoint, and crash a directory replica. Leases,
// heartbeats, scrubs, retry backoff and a 500 us backend read all run on the
// bubble's clock, so a run of many lease cycles takes well under a second.
//
// At each quiet point (vt.Wait: every goroutine blocked on the clock or a
// channel) vtCluster.check holds the invariants:
//
//   - conservation: each node process's hits+misses+substitutions equal the
//     samples its trainer asked of it, and every batch came back in full
//     with verified bytes (serve);
//   - the payload store holds residents only, every L-resident has bytes, and
//     a node caches no more than its capacity;
//   - no sample is resident on two nodes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/metrics"
	"icache/internal/sampling"
	"icache/internal/simclock"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
)

// The deployment's clock: a lease lapses after vtLeaseTTL and its owner is
// declared dead one suspect window (another TTL) later; a node heartbeats
// every vtBeat and sweeps every vtScrub. The trainer computes vtStep per
// batch, and every backend read costs vtBackend.
const (
	vtLeaseTTL = 400 * time.Millisecond
	vtBeat     = 100 * time.Millisecond
	vtScrub    = 200 * time.Millisecond
	vtStep     = 10 * time.Millisecond
	vtBackend  = 500 * time.Microsecond
	vtBatch    = 128
)

// vtConfig shapes a vtCluster.
type vtConfig struct {
	// replicas is the number of directory servers; above one every node
	// reaches them through a dkv.ShardedDir.
	replicas int
	// dirFaults gates every directory call of every node (faults.Dir; its
	// time windows read the bubble's clock since the injector's New, made
	// just before the cluster); peerFaults every read and write of the
	// server end of a connection one node dials to the other. Nil: no faults.
	dirFaults, peerFaults *faults.Injector
}

// vtNode is one cache node's current process and the trainer's connection
// to it (srv is nil while the node is down).
type vtNode struct {
	id      dkv.NodeID
	srv     *Server
	trainer *Client
	dir     dkv.Service
	ring    *dkv.ShardedDir // dir's sharded client (replicas > 1)
	close   func()          // closes dir's connections
	// asked is the samples the trainer asked of this process; base is its
	// request count at boot.
	asked, base int64
	// ran is how many processes the node has had, for their seeds.
	ran int64
}

// vtCluster is the deployment: directory servers, two nodes, the trainer.
type vtCluster struct {
	t     *testing.T
	seed  int64
	cfg   vtConfig
	net   *transporttest.Network
	start time.Time

	dirs    []*dkv.Directory
	dirSrvs []*dkv.DirServer
	nodes   [2]*vtNode

	tr    *sampling.Tracker
	rng   *rand.Rand
	hl    *sampling.HList
	epoch int
}

// newVTCluster starts the deployment on the calling bubble's clock: the
// directory servers, then both nodes, each registered with the directory.
func newVTCluster(t *testing.T, seed int64, cfg vtConfig) *vtCluster {
	t.Helper()
	if cfg.replicas == 0 {
		cfg.replicas = 1
	}
	spec := testSpec()
	c := &vtCluster{t: t, seed: seed, cfg: cfg, net: transporttest.NewNetwork(t), start: time.Now(), rng: rand.New(rand.NewSource(seed))}
	c.dirs, c.dirSrvs = make([]*dkv.Directory, cfg.replicas), make([]*dkv.DirServer, cfg.replicas)
	for r := range c.dirs {
		c.startReplica(r)
	}
	for n := range c.nodes {
		c.nodes[n] = &vtNode{id: dkv.NodeID(n)}
		wrap := func(conn net.Conn) net.Conn { return faults.WrapConn(conn, cfg.peerFaults) }
		c.net.Alias(fmt.Sprintf("peer%d", n), fmt.Sprintf("node%d", n), wrap)
	}
	for n := range c.nodes {
		c.boot(n, nil)
	}
	var err error
	if c.tr, err = sampling.NewTracker(spec.NumSamples, 3.0, 0.3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.NumSamples; i++ {
		c.tr.Observe(dataset.SampleID(i), spec.Difficulty(dataset.SampleID(i))*2+c.rng.Float64()*0.1)
	}
	t.Cleanup(func() {
		// The run's counters and clock, for comparing repeated runs (-v).
		for _, node := range c.live() {
			p, d := node.srv.ResilienceStats()
			t.Logf("at %v node %d: %v peerFail=%d dirFail=%d %+v", c.now(), node.id, cacheStats(node.srv), p, d, node.srv.MembershipStats())
		}
		for n := range c.nodes {
			c.kill(n)
		}
		for r := range c.dirSrvs {
			c.killReplica(r)
		}
	})
	return c
}

// now is the bubble's clock since the cluster started: the clock the
// directory fault schedule reads when its injector was made just before.
func (c *vtCluster) now() simclock.Time { return simclock.Time(time.Since(c.start)) }

// startReplica boots directory replica r empty, as icache-dkv boots.
func (c *vtCluster) startReplica(r int) {
	dir := dkv.NewDirectory()
	dir.SetMembershipParams(vtLeaseTTL, vtLeaseTTL)
	srv := dkv.NewDirServer(dir)
	go srv.Serve(c.net.Listen(fmt.Sprintf("dir%d", r)))
	c.dirs[r], c.dirSrvs[r] = dir, srv
}

// killReplica crashes directory replica r (a no-op when it is down).
func (c *vtCluster) killReplica(r int) {
	if c.dirSrvs[r] != nil {
		c.dirSrvs[r].Close()
		c.dirSrvs[r] = nil
	}
}

// boot starts node n's next process the way icache-server boots: restore the
// checkpoint (with its payloads), dial the directory, register and replay a
// claim per resident, then serve. The trainer crosses the current epoch's
// boundary on it.
func (c *vtCluster) boot(n int, ckpt []byte) {
	t, node := c.t, c.nodes[n]
	srv := newVTServer(t, c.seed+int64(n)*7+node.ran*101, vtBackend)
	node.ran++
	if ckpt != nil {
		if err := srv.LoadCheckpoint(bytes.NewReader(ckpt), true); err != nil {
			t.Fatal(err)
		}
	}

	if c.cfg.replicas == 1 {
		dc, err := dkv.DialDir("dir0", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		node.dir, node.ring, node.close = dc, nil, func() { dc.Close() }
	} else {
		addrs := make([]string, c.cfg.replicas)
		for r := range addrs {
			addrs[r] = fmt.Sprintf("dir%d", r)
		}
		ring, err := dkv.DialSharded(addrs, dkv.DialConfig{Timeout: time.Second}, dkv.ShardedConfig{FailoverTTL: vtLeaseTTL})
		if err != nil {
			t.Fatal(err)
		}
		node.dir, node.ring, node.close = ring, ring, func() { ring.Close() }
	}
	dir := node.dir
	if c.cfg.dirFaults != nil {
		dir = faults.WrapDir(node.dir, c.cfg.dirFaults)
	}
	srv.EnableDistributed(node.id, dir, map[dkv.NodeID]string{1 - node.id: fmt.Sprintf("peer%d", 1-n)})
	if err := srv.StartMembership(MembershipConfig{LeaseTTL: vtLeaseTTL, HeartbeatInterval: vtBeat, ScrubInterval: vtScrub, ScrubBatch: testSpec().NumSamples}); err != nil {
		t.Fatal(err)
	}
	go srv.Serve(c.net.Listen(fmt.Sprintf("node%d", n)))
	node.srv, node.base, node.asked = srv, cacheStats(srv).Requests(), 0
	var err error
	if node.trainer, err = Dial(fmt.Sprintf("node%d", n), time.Second); err != nil {
		t.Fatal(err)
	}
	if c.hl != nil {
		c.boundary(node)
	}
}

// kill crashes node n's process: the server stops at once, releasing
// nothing. A no-op when it is down.
func (c *vtCluster) kill(n int) {
	node := c.nodes[n]
	if node.srv == nil {
		return
	}
	node.trainer.Close()
	node.srv.Close()
	node.close()
	node.srv = nil
}

// checkpoint is node n's checkpoint file as icache-server writes it.
func (c *vtCluster) checkpoint(n int) []byte {
	var buf bytes.Buffer
	if err := c.nodes[n].srv.SaveCheckpoint(&buf); err != nil {
		c.t.Fatal(err)
	}
	return buf.Bytes()
}

// live is the nodes whose process runs.
func (c *vtCluster) live() []*vtNode {
	var out []*vtNode
	for _, node := range c.nodes {
		if node.srv != nil {
			out = append(out, node)
		}
	}
	return out
}

// boundary pushes the current H-list and epoch to node, as icache-train does.
func (c *vtCluster) boundary(node *vtNode) {
	if err := node.trainer.UpdateImportance(c.hl.Items); err != nil {
		c.t.Fatal(err)
	}
	if err := node.trainer.BeginEpoch(c.epoch); err != nil {
		c.t.Fatal(err)
	}
}

// runEpoch draws the next epoch's schedule, crosses its boundary on every
// live node and serves its batches round-robin over them; mid, when set,
// runs before batch i (and may kill or boot a process). It returns the
// epoch's length on the bubble's clock and the samples the trainer read.
func (c *vtCluster) runEpoch(mid func(i int)) (took time.Duration, read int) {
	began := time.Now()
	sched, hl := sampling.IISSchedule(c.tr, sampling.DefaultIIS(), c.rng)
	c.hl = hl
	for _, node := range c.live() {
		c.boundary(node)
	}
	for i, batch := range sched.Batches(vtBatch) {
		if mid != nil {
			mid(i)
		}
		live := c.live()
		c.serve(live[i%len(live)], batch)
		read += len(batch)
	}
	c.epoch++
	return time.Since(began), read
}

// runUntil runs epochs until the bubble's clock passes at, failing after
// max epochs.
func (c *vtCluster) runUntil(at simclock.Time, max int) {
	c.t.Helper()
	for e := 0; c.now() < at; e++ {
		if e == max {
			c.t.Fatalf("the clock reads %v after %d epochs, never reaching %v", c.now(), e, at)
		}
		c.runEpoch(nil)
	}
}

// serve computes one step, then reads batch through node: it must come back
// in full, every payload verified.
func (c *vtCluster) serve(node *vtNode, batch []dataset.SampleID) {
	time.Sleep(vtStep)
	samples, err := node.trainer.GetBatch(batch)
	if err != nil {
		c.t.Fatalf("node %d: %v", node.id, err)
	}
	if len(samples) != len(batch) {
		c.t.Fatalf("node %d served %d of %d", node.id, len(samples), len(batch))
	}
	for _, s := range samples {
		if err := testSpec().VerifyPayload(s.ID, s.Payload); err != nil {
			c.t.Fatalf("node %d: %v", node.id, err)
		}
	}
	node.asked += int64(len(batch))
}

// check waits for a quiet point and holds the invariants there; leased says
// every live node holds a current lease, without which a survivor may
// reclaim what a node the directory counts dead still caches.
func (c *vtCluster) check(leased bool) {
	t := c.t
	t.Helper()
	vt.Wait()
	capacity := testSpec().TotalBytes() / 5
	where := map[dataset.SampleID]dkv.NodeID{}
	for _, node := range c.live() {
		if got := cacheStats(node.srv).Requests() - node.base; got != node.asked {
			t.Errorf("node %d: hits+misses+substitutions = %d, the trainer asked for %d", node.id, got, node.asked)
		}
		requireLResidentsStored(t, node.srv)
		var used int64
		for _, id := range (lockedResidents{node.srv}).Residents(nil) {
			used += int64(testSpec().SampleBytes(id))
			if other, dup := where[id]; dup && leased {
				t.Errorf("sample %d resident on nodes %d and %d", id, other, node.id)
			}
			where[id] = node.id
		}
		if used > capacity {
			t.Errorf("node %d caches %d bytes, capacity %d", node.id, used, capacity)
		}
	}
}

// requireDirCreditsResidents: once no package is loading, the directory
// credits every live node with exactly what it caches. A package's members
// are claimed before their reads land, so a quiet point with one in flight
// (its reads asleep on the clock) credits samples not yet cached.
func (c *vtCluster) requireDirCreditsResidents(after string) {
	c.t.Helper()
	for i := 0; ; i++ {
		vt.Wait()
		loading := false
		for _, node := range c.live() {
			loading = loading || engineView(node.srv).Loading
		}
		if !loading {
			break
		}
		if i == 1000 {
			c.t.Fatalf("after %s a package is still loading", after)
		}
		time.Sleep(vtBackend)
	}
	for _, node := range c.live() {
		owned, err := node.dir.OwnedBy(node.id, 0)
		if err != nil {
			c.t.Fatal(err)
		}
		if cached := (lockedResidents{node.srv}).Residents(nil); !slices.Equal(owned, cached) {
			c.t.Errorf("after %s the directory credits node %d with %d samples, it caches %d",
				after, node.id, len(owned), len(cached))
		}
	}
}

// failures sums the nodes' counted peer and directory failures.
func (c *vtCluster) failures() (peer, dir int64) {
	for _, node := range c.live() {
		p, d := node.srv.ResilienceStats()
		peer, dir = peer+p, dir+d
	}
	return peer, dir
}

// membership sums the live nodes' lifecycle counters.
func (c *vtCluster) membership() metrics.MembershipStats {
	var ms metrics.MembershipStats
	for _, node := range c.live() {
		ms.Add(node.srv.MembershipStats())
	}
	return ms
}

// forSeeds runs f in a bubble per seed, as subtests "seed=N".
func forSeeds(t *testing.T, seeds []int64, f func(t *testing.T, seed int64)) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			vt.Run(t, func(t *testing.T) { f(t, seed) })
		})
	}
}

// TestChaosTrainingSurvivesFaultSchedule: a 2-node, 4-epoch run completes
// every epoch in full while the directory is partitioned for the fault-free
// twin's whole epoch 1 and the peer plane fails every 5th read plus a run of
// 20. Every fault that bit is counted, and the partitioned epoch is no
// cheaper than its fault-free twin: chaos costs time, never data.
func TestChaosTrainingSurvivesFaultSchedule(t *testing.T) {
	const epochs = 4
	forSeeds(t, []int64{1, 42, 1337}, func(t *testing.T, seed int64) {
		clean := newVTCluster(t, seed, vtConfig{})
		var cleanTook [epochs]time.Duration
		var cleanRead [epochs]int
		for e := range cleanTook {
			cleanTook[e], cleanRead[e] = clean.runEpoch(nil)
		}
		clean.check(true)
		if p, d := clean.failures(); p+d != 0 {
			t.Fatalf("fault-free run counted %d peer and %d directory failures", p, d)
		}
		from := simclock.Time(cleanTook[0])
		until := from + simclock.Time(cleanTook[1])

		dirInj := faults.New(seed).Add(
			faults.Partition(faults.OpDirLookup, from, until, nil),
			faults.Partition(faults.OpDirClaim, from, until, nil),
			faults.Partition(faults.OpDirRelease, from, until, nil),
		)
		peerInj := faults.New(seed).Add(
			faults.Rule{Op: faults.OpConnRead, From: 10, Until: 30, Action: faults.ActError},
			faults.Rule{Op: faults.OpConnRead, Every: 5, Action: faults.ActError},
		)
		c := newVTCluster(t, seed, vtConfig{dirFaults: dirInj, peerFaults: peerInj})
		var took [epochs]time.Duration
		for e := range took {
			var read int
			took[e], read = c.runEpoch(nil)
			if read != cleanRead[e] {
				t.Errorf("epoch %d read %d samples under chaos, fault-free read %d", e, read, cleanRead[e])
			}
		}
		c.check(true)
		peer, dir := c.failures()
		if dirInj.TotalFired() == 0 || dir == 0 {
			t.Errorf("directory partition: %d faults fired, %d counted", dirInj.TotalFired(), dir)
		}
		if peerInj.TotalFired() == 0 || peer == 0 {
			t.Errorf("peer faults: %d fired, %d counted", peerInj.TotalFired(), peer)
		}
		if took[1] < cleanTook[1] {
			t.Errorf("partitioned epoch 1 took %v, faster than fault-free %v", took[1], cleanTook[1])
		}
	})
}

// randomHealingSchedule draws a fault schedule in which every rule is
// bounded — by a call-count window, a window of the bubble's clock (drawn
// for the directory's rules only), or a fire-count cap — so the system is
// eventually fault-free ("eventually healing").
func randomHealingSchedule(rng *rand.Rand) (dir, peer []faults.Rule) {
	ops := []string{faults.OpDirLookup, faults.OpDirClaim, faults.OpDirRelease, faults.OpConnRead}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		op := ops[rng.Intn(len(ops))]
		var r faults.Rule
		switch kind := rng.Intn(3); {
		case kind == 0:
			from := int64(rng.Intn(200))
			r = faults.Rule{Op: op, From: from, Until: from + 1 + int64(rng.Intn(100)), Action: faults.ActError}
		case kind == 1 && op != faults.OpConnRead:
			from := simclock.Time(rng.Intn(2000)) * time.Millisecond
			r = faults.Partition(op, from, from+simclock.Time(1+rng.Intn(500))*time.Millisecond, nil)
		default:
			r = faults.Rule{Op: op, Prob: 0.2 + rng.Float64()*0.6, Count: int64(1 + rng.Intn(50)), Action: faults.ActError}
		}
		if op == faults.OpConnRead {
			peer = append(peer, r)
		} else {
			dir = append(dir, r)
		}
	}
	return dir, peer
}

// TestChaosConservationProperty: under any eventually-healing schedule of
// directory and peer faults, every batch is served in full and the
// invariants hold after every epoch.
func TestChaosConservationProperty(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			vt.Run(t, func(t *testing.T) {
				dir, peer := randomHealingSchedule(rand.New(rand.NewSource(1000 + trial)))
				c := newVTCluster(t, trial, vtConfig{
					dirFaults:  faults.New(trial).Add(dir...),
					peerFaults: faults.New(trial).Add(peer...),
				})
				for e := 0; e < 3; e++ {
					c.runEpoch(nil)
					c.check(true)
				}
			})
		})
	}
}

// TestChaosPeerDelayOnlySlowsRun: a delay-only peer schedule costs time,
// never data — nothing fails, the same samples are read, the invariants
// hold, and the run is slower than its fault-free twin.
func TestChaosPeerDelayOnlySlowsRun(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const epochs = 3
		run := func(inj *faults.Injector) (c *vtCluster, took time.Duration, read [epochs]int) {
			c = newVTCluster(t, 5, vtConfig{peerFaults: inj})
			for e := range read {
				var d time.Duration
				d, read[e] = c.runEpoch(nil)
				took += d
			}
			c.check(true)
			return c, took, read
		}
		_, baseTook, baseRead := run(nil)
		// A node reads every other request of its peer 50 ms late, well
		// inside the peer read's one-second bound.
		inj := faults.New(5).Add(faults.DelayEvery(faults.OpConnRead, 2, 50*time.Millisecond))
		slow, slowTook, slowRead := run(inj)
		if inj.Fired(faults.OpConnRead) == 0 {
			t.Fatal("delay rule never fired")
		}
		if p, d := slow.failures(); p+d != 0 {
			t.Errorf("delay-only schedule counted %d peer and %d directory failures", p, d)
		}
		if slowRead != baseRead {
			t.Errorf("delayed run read %v samples per epoch, fault-free %v", slowRead, baseRead)
		}
		if slowTook <= baseTook {
			t.Errorf("delayed run (%v) not slower than fault-free run (%v)", slowTook, baseTook)
		}
	})
}

// TestLifecycleKillReclaimRejoin: node 1 is killed halfway through epoch 1
// and the survivor serves on; within one lease cycle every directory entry
// the dead node held is reclaimed or purged; the node rejoins from the
// checkpoint taken at the kill, replaying one claim per restored resident;
// and both nodes serve a last epoch with the invariants intact.
func TestLifecycleKillReclaimRejoin(t *testing.T) {
	forSeeds(t, []int64{1, 42, 1337}, func(t *testing.T, seed int64) {
		c := newVTCluster(t, seed, vtConfig{})
		dir := c.dirs[0]
		c.runEpoch(nil)
		c.check(true)

		var ckpt []byte
		var killedAt simclock.Time
		var cached, owned int
		c.runEpoch(func(i int) {
			if i != 6 {
				return
			}
			vt.Wait()
			ckpt = c.checkpoint(1)
			cached = len(lockedResidents{c.nodes[1].srv}.Residents(nil))
			owned = len(dir.OwnedBy(1, 0))
			c.check(true)
			killedAt = c.now()
			c.kill(1)
		})
		if owned == 0 || cached == 0 {
			t.Fatalf("node 1 owned %d and cached %d samples at the kill; the scenario proves nothing", owned, cached)
		}

		// Survivor-only epochs until the dead node's lease, suspect window
		// and a scrub cycle have passed.
		c.runUntil(killedAt+simclock.Time(2*vtLeaseTTL+2*vtScrub), 30)
		vt.Wait()
		if left := dir.OwnedBy(1, 0); len(left) != 0 {
			t.Errorf("dead node still owns %d directory entries past its lease", len(left))
		}
		if ms := dir.Membership(); ms.Deaths == 0 || ms.Reclaims+ms.Purged == 0 {
			t.Errorf("directory after the kill: %d deaths, %d reclaimed, %d purged", ms.Deaths, ms.Reclaims, ms.Purged)
		}
		if ms := c.nodes[0].srv.MembershipStats(); ms.Heartbeats == 0 || ms.ScrubSweeps == 0 {
			t.Errorf("the survivor heartbeat %d times and swept %d times", ms.Heartbeats, ms.ScrubSweeps)
		}
		c.check(true)

		// Rejoin from the checkpoint: a fresh lease, and every restored
		// resident replayed as a claim, granted or denied.
		revivals := dir.Membership().Revivals
		c.boot(1, ckpt)
		ms := c.nodes[1].srv.MembershipStats()
		if replayed := ms.ReplayedClaims + ms.ReplayDenied; replayed != int64(cached) {
			t.Errorf("rejoin replayed %d claims, the checkpoint holds %d residents", replayed, cached)
		}
		if dir.Membership().Revivals == revivals {
			t.Error("rejoin registration revived nothing")
		}
		c.runEpoch(nil)
		c.check(true)
		if _, dir := c.failures(); dir != 0 {
			t.Errorf("a kill and a rejoin with the directory up counted %d directory failures", dir)
		}
	})
}

// TestChaosDirReplicaFailover: one of three directory replicas crashes
// halfway through epoch 1. The nodes' sharded clients fail its shards over
// inside the call, so no directory failure reaches a node; within a lease
// cycle both clients route over the two survivors. Restarted empty, the
// replica rejects the nodes' next heartbeats, their re-registration and
// reconcile repopulate it, and one sweep later the directory credits every
// node exactly what it caches.
func TestChaosDirReplicaFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	for i, seed := range []int64{1, 42, 1337} {
		victim := i % 3
		t.Run(fmt.Sprintf("seed=%d/victim=%d", seed, victim), func(t *testing.T) {
			vt.Run(t, func(t *testing.T) { dirReplicaFailover(t, seed, victim) })
		})
	}
}

func dirReplicaFailover(t *testing.T, seed int64, victim int) {
	c := newVTCluster(t, seed, vtConfig{replicas: 3})
	live := func(n int) int {
		c.nodes[n].ring.Len() // probes a replica due for re-admission
		return c.nodes[n].ring.Ring().LiveReplicas
	}
	c.runEpoch(nil)
	c.check(true)
	if c.dirs[victim].Len() == 0 {
		t.Fatalf("replica %d holds no entries after warm-up; the scenario proves nothing", victim)
	}

	var killedAt simclock.Time
	c.runEpoch(func(i int) {
		if i == 6 {
			killedAt = c.now()
			c.killReplica(victim)
		}
	})
	var failovers int64
	for n := range c.nodes {
		failovers += c.nodes[n].ring.Ring().Failovers
	}
	if failovers == 0 {
		t.Error("killing a replica mid-epoch recorded no failover")
	}
	c.runUntil(killedAt+simclock.Time(2*vtLeaseTTL), 30)
	vt.Wait()
	for n := range c.nodes {
		if got := live(n); got != 2 {
			t.Errorf("a lease cycle after the kill node %d routes over %d replicas, want 2", n, got)
		}
	}
	if _, dir := c.failures(); dir != 0 {
		t.Errorf("the replica crash reached the nodes as %d directory failures, want 0", dir)
	}
	c.check(true)

	// Repopulated: both clients route over the replica again, it holds
	// entries, and it has rejected a heartbeat of each node — so each has
	// re-registered and replayed its claims there.
	rejects := func(n int) int64 { return c.nodes[n].srv.MembershipStats().HeartbeatRejects }
	before := [2]int64{rejects(0), rejects(1)}
	c.startReplica(victim)
	for e := 0; c.dirs[victim].Len() == 0 || live(0) != 3 || live(1) != 3 || rejects(0) == before[0] || rejects(1) == before[1]; e++ {
		if e == 30 {
			t.Fatalf("%d epochs after its restart replica %d holds %d entries, the nodes route over %d and %d replicas, and it rejected %d and %d heartbeats",
				e, victim, c.dirs[victim].Len(), live(0), live(1), rejects(0)-before[0], rejects(1)-before[1])
		}
		c.runEpoch(nil)
		vt.Wait()
	}
	if _, dir := c.failures(); dir != 0 {
		t.Errorf("the restart reached the nodes as %d directory failures, want 0", dir)
	}
	// A node whose client re-admitted the replica rejoins at its next
	// heartbeat; until then a sample it caches may be owned elsewhere on the
	// replica. Entries the failover stranded on the survivors are hidden from
	// the nodes' sweeps, so one sweep of each node settles the directory.
	c.runUntil(c.now()+simclock.Time(vtScrub), 30)
	c.check(true)
	c.requireDirCreditsResidents("the repopulation")
}

// dirPartition warms both nodes for an epoch, then fails the directory the
// way a node meets it: first only releases are lost, so what the nodes go on
// evicting stays registered to them; then every operation fails for longer
// than the lease TTL, each failure counted, and the leases lapse.
// Conservation holds at every epoch's end, and once the clock is a sweep past
// the heal — each node has re-registered and swept since — the directory
// credits every node exactly what it caches.
func dirPartition(t *testing.T, seed int64) *vtCluster {
	inj := faults.New(seed)
	c := newVTCluster(t, seed, vtConfig{dirFaults: inj})
	c.runEpoch(nil)
	c.check(true)

	from := c.now()
	down := from + simclock.Time(300*time.Millisecond)
	until := down + simclock.Time(800*time.Millisecond)
	part := func(op string) faults.Rule { return faults.Partition(op, down, until, nil) }
	inj.Add(
		faults.Partition(faults.OpDirRelease, from, until, nil),
		part(faults.OpDirLookup), part(faults.OpDirClaim),
		part(faults.OpDirHeartbeat), part(faults.OpDirRegister), part(faults.OpDirScan),
	)
	for e := 0; c.now() < until+simclock.Time(vtScrub); e++ {
		if e == 30 {
			t.Fatalf("the clock reads %v after %d epochs, never passing the partition", c.now(), e)
		}
		c.runEpoch(nil)
		c.check(false)
	}
	c.check(true)
	c.requireDirCreditsResidents("the heal")
	if _, dir := c.failures(); dir == 0 {
		t.Error("directory partition produced no counted failures")
	}
	return c
}

// TestChaosDirPartitionRepairedByScrub: the partition bites and is counted,
// and the releases it lost are repaired by the scrubber.
func TestChaosDirPartitionRepairedByScrub(t *testing.T) {
	forSeeds(t, []int64{1, 42, 1337}, func(t *testing.T, seed int64) {
		if ms := dirPartition(t, seed).membership(); ms.ScrubReleased == 0 {
			t.Error("no release was lost to the partition; the scrubber repaired nothing")
		}
	})
}

// TestHeartbeatLapseTriggersReregistration: the partition outlasts the
// lease TTL, so a node's first heartbeat after the heal is rejected, and it
// re-registers and reconciles ownership.
func TestHeartbeatLapseTriggersReregistration(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		c := dirPartition(t, 13)
		ms := c.membership()
		if ms.HeartbeatRejects == 0 {
			t.Error("lapsed lease never rejected a heartbeat")
		}
		if c.dirs[0].Membership().Revivals == 0 {
			t.Error("re-registration revived nothing")
		}
		if ms.ReplayedClaims == 0 {
			t.Error("ownership reconciliation re-claimed nothing")
		}
	})
}
