package rpc

// Lifecycle tests for the network server: the membership loop heartbeats and
// scrubs (on a bubble's virtual clock), a promoted sample keeps its payload and ownership,
// a checkpoint rejoin replays claims against a directory where a peer took
// samples over, /healthz reports lease age, and checkpoint saves are
// crash-atomic. (What a heartbeat, a rejoin and a sweep do is tested once,
// in internal/dkv's TestMemberSteps.)

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/sampling"
	"icache/internal/vt"
)

// warmOverWire pushes an H-list for ids [0, n) and fetches them once, so the
// server's cache holds them as residents.
func warmOverWire(t *testing.T, c *Client, n int) []dataset.SampleID {
	t.Helper()
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < dataset.SampleID(n); id++ {
		items = append(items, sampling.Item{ID: id, IV: 3})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestMembershipLoopHeartbeatsAndScrubs(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		dir := dkv.NewDirectory()
		srv, addr, _ := startServer(t)
		srv.EnableDistributed(3, dkv.Local{Dir: dir}, nil)
		// A 20 ms lease: heartbeats every 5 ms, sweeps every 10 ms.
		if err := srv.StartMembership(MembershipConfig{LeaseTTL: 20 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := srv.StartMembership(MembershipConfig{}); err == nil {
			t.Error("second StartMembership did not error")
		}

		c := dial(t, addr)
		warmOverWire(t, c, 20)

		time.Sleep(10 * time.Millisecond) // two heartbeat intervals, one scrub interval
		vt.Wait()
		if mem := srv.MembershipStats(); mem.Heartbeats != 2 || mem.ScrubSweeps != 1 {
			t.Fatalf("after 10ms: %d heartbeats and %d scrub sweeps, want 2 and 1", mem.Heartbeats, mem.ScrubSweeps)
		}
		if srv.LastHeartbeat().IsZero() {
			t.Error("LastHeartbeat still zero after successful renewals")
		}
		found := false
		for _, n := range dir.ListNodes() {
			if n.ID == 3 {
				found = true
				if n.State != dkv.NodeLive {
					t.Errorf("heartbeating node state = %v, want Live", n.State)
				}
			}
		}
		if !found {
			t.Error("node 3 missing from the directory's member list")
		}

		// Stopping is idempotent, and Close after an explicit stop is safe.
		srv.StopMembership()
		srv.StopMembership()
	})
}

// TestDefaultLeaseIsSentAndPacedOn: a node started without a lease TTL asks
// the directory for dkv.DefaultLeaseTTL and heartbeats on that lease, so over
// three TTLs no renewal comes too late.
func TestDefaultLeaseIsSentAndPacedOn(t *testing.T) {
	inBubble(t, func(t *testing.T) {
		dir := dkv.NewDirectory()
		srv, _, _ := startServer(t)
		srv.EnableDistributed(3, dkv.Local{Dir: dir}, nil)
		if err := srv.StartMembership(MembershipConfig{}); err != nil {
			t.Fatal(err)
		}
		if nodes := dir.ListNodes(); len(nodes) != 1 || nodes[0].ExpiresIn != dkv.DefaultLeaseTTL {
			t.Fatalf("registered as %+v, want one lease of %v", nodes, dkv.DefaultLeaseTTL)
		}
		time.Sleep(3 * dkv.DefaultLeaseTTL)
		vt.Wait()
		mem, dm := srv.MembershipStats(), dir.Membership()
		if mem.HeartbeatRejects != 0 || dm.HeartbeatRejects != 0 || mem.Heartbeats != 12 {
			t.Errorf("over three TTLs: node %+v, directory %+v; want 12 heartbeats and no rejects", mem, dm)
		}
	})
}

// TestPromotedSampleKeepsPayloadAndOwnership: a sample the loader cached as
// an L-sample and the next H-list names is a hit served from the copy the
// node has. The move into the H-cache removes the L entry without an
// eviction, so it costs no backend read and the payload and the directory
// entry — which the eviction observer would delete and release — stay.
func TestPromotedSampleKeepsPayloadAndOwnership(t *testing.T) {
	dir := dkv.NewDirectory()
	srv, addr, source := startServer(t)
	srv.EnableDistributed(0, dkv.Local{Dir: dir}, nil)
	c := dial(t, addr)
	if err := c.BeginEpoch(0); err != nil {
		t.Fatal(err)
	}

	// With an empty H-list every request is an L-sample: misses feed the
	// loader until a package lands and one of its samples is served exact,
	// which leaves it L-resident with its payload stored and claimed.
	var id dataset.SampleID
	deadline := time.Now().Add(10 * time.Second)
	for next := dataset.SampleID(0); ; next += 32 {
		if time.Now().After(deadline) {
			t.Fatal("no L-resident sample with a stored payload ever appeared")
		}
		batch := make([]dataset.SampleID, 32)
		for i := range batch {
			batch[i] = (next + dataset.SampleID(i)) % dataset.SampleID(testSpec().NumSamples)
		}
		if _, err := c.GetBatch(batch); err != nil {
			t.Fatal(err)
		}
		srv.policyMu.Lock()
		residents := srv.cache.Residents(nil)
		srv.policyMu.Unlock()
		found := false
		for _, r := range residents {
			if owner, ok := dir.Lookup(r); ok && owner == 0 && srv.payloads.has(r) {
				id, found = r, true
				break
			}
		}
		if found {
			break
		}
	}

	if err := c.UpdateImportance([]sampling.Item{{ID: id, IV: 3}}); err != nil {
		t.Fatal(err)
	}
	before, reads := cacheStats(srv), source.Reads()
	got, err := c.GetBatch([]dataset.SampleID{id})
	if err != nil || len(got) != 1 || got[0].ID != id {
		t.Fatalf("promoted fetch: %v, %v", got, err)
	}
	after := cacheStats(srv)
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("promoted sample: hits %d→%d misses %d→%d, want one hit", before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if delta := source.Reads() - reads; delta != 0 {
		t.Errorf("promoted sample cost %d backend reads", delta)
	}
	if hLen := engineView(srv).HLen; hLen != 1 {
		t.Errorf("H-cache holds %d samples after the promotion, want 1", hLen)
	}
	if !srv.payloads.has(id) {
		t.Error("the L-side removal deleted the promoted sample's payload")
	}
	if owner, ok := dir.Lookup(id); !ok || owner != 0 {
		t.Errorf("the L-side removal released ownership: owner = (%d, %v)", owner, ok)
	}
	requireStoreWithinResidents(t, srv)
}

// TestRejoinFromCheckpointReplaysClaims is the crash/rejoin story over a
// real checkpoint file: a restarted server restores its warm state, joins
// the directory, and replays an ownership claim per restored resident —
// claims a peer won in the meantime are denied and those copies dropped.
func TestRejoinFromCheckpointReplaysClaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.ckpt")

	// First lifetime: warm 50 residents, checkpoint, crash.
	srv1, addr1, _ := startServer(t)
	c1 := dial(t, addr1)
	warmOverWire(t, c1, 50)
	if err := srv1.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// While the node was down, a peer took over samples 0..4.
	dir := dkv.NewDirectory()
	for id := dataset.SampleID(0); id < 5; id++ {
		if !dir.Claim(id, 1) {
			t.Fatalf("pre-claim of %d failed", id)
		}
	}

	// Second lifetime: restore, then join. StartMembership registers and
	// replays claims synchronously before returning.
	srv2 := newSeededServer(t, 9, nil)
	t.Cleanup(func() { srv2.Close() })
	loaded, err := srv2.LoadCheckpointFile(path, true) // rehydrated: every resident has bytes
	if err != nil || !loaded {
		t.Fatalf("restore: loaded=%v err=%v", loaded, err)
	}
	srv2.EnableDistributed(0, dkv.Local{Dir: dir}, nil)
	long := MembershipConfig{LeaseTTL: time.Hour}
	if err := srv2.StartMembership(long); err != nil {
		t.Fatal(err)
	}

	mem := srv2.MembershipStats()
	if mem.ReplayDenied != 5 {
		t.Errorf("ReplayDenied = %d, want 5 (the peer-owned samples)", mem.ReplayDenied)
	}
	if mem.ReplayedClaims != 45 {
		t.Errorf("ReplayedClaims = %d, want 45", mem.ReplayedClaims)
	}
	srv2.policyMu.Lock()
	dropped := !srv2.cache.Resident(0)
	kept := srv2.cache.Resident(10)
	srv2.policyMu.Unlock()
	if !dropped {
		t.Error("peer-owned checkpoint sample not dropped on rejoin")
	}
	// Its bytes go with it: a payload left behind would keep answering peer
	// reads for a sample this node no longer owns.
	if srv2.payloads.has(0) || !srv2.payloads.has(10) {
		t.Error("the denied sample's payload stayed, or a re-claimed one's went")
	}
	requireStoreWithinResidents(t, srv2)
	if !kept {
		t.Error("re-claimed checkpoint sample missing after rejoin")
	}
	if owner, ok := dir.Lookup(10); !ok || owner != 0 {
		t.Errorf("sample 10 owner = (%d, %v), want (0, true)", owner, ok)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv, _, _ := startServer(t)

	get := func() healthzResponse {
		t.Helper()
		rr := httptest.NewRecorder()
		srv.HealthHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		if rr.Code != 200 {
			t.Fatalf("GET /healthz = %d, want 200", rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("Content-Type = %q", ct)
		}
		var resp healthzResponse
		if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Standalone server: healthy, not distributed, no lease.
	resp := get()
	if resp.Status != "ok" || resp.Distributed || resp.LeaseAgeSeconds != -1 {
		t.Errorf("standalone healthz = %+v", resp)
	}

	// Non-GET is rejected.
	rr := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rr, httptest.NewRequest("POST", "/healthz", nil))
	if rr.Code != 405 {
		t.Errorf("POST /healthz = %d, want 405", rr.Code)
	}

	// Distributed with a running lease: node identity and lease age appear.
	dir := dkv.NewDirectory()
	srv.EnableDistributed(2, dkv.Local{Dir: dir}, nil)
	long := MembershipConfig{LeaseTTL: time.Hour}
	if err := srv.StartMembership(long); err != nil {
		t.Fatal(err)
	}
	resp = get()
	if !resp.Distributed || resp.NodeID != 2 {
		t.Errorf("distributed healthz = %+v", resp)
	}
	if resp.LeaseAgeSeconds < 0 {
		t.Errorf("LeaseAgeSeconds = %g after registration, want >= 0", resp.LeaseAgeSeconds)
	}
	if resp.Membership.Registers == 0 {
		t.Error("healthz membership counters missing the boot registration")
	}
}

// TestCheckpointPartialWriteKeepsPrevious is the crash-atomicity satellite:
// a write that fails midway must leave the previous checkpoint byte-for-byte
// intact and not litter the directory with temp files.
func TestCheckpointPartialWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.ckpt")
	const good = "good checkpoint bytes"
	if err := atomicWriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, good)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk exploded mid-write")
	err := atomicWriteFile(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "partial gar"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("partial write error = %v, want %v", err, boom)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != good {
		t.Fatalf("previous checkpoint corrupted: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp litter after failed write: %v", names)
	}

	// A successful rewrite replaces the content atomically.
	if err := atomicWriteFile(path, func(w io.Writer) error {
		_, werr := io.WriteString(w, "second generation")
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second generation" {
		t.Fatalf("rewrite produced %q", got)
	}
}
