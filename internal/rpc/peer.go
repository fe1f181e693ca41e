package rpc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/metrics"
	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/retry"
	"icache/internal/trace"
	"icache/internal/transport"
	"icache/internal/wire"
)

// This file adds the distributed deployment of §III-E to the network
// server: nodes share a dkv directory service (which sample lives where)
// and answer opPeerGetBatch requests for samples they cache, so a miss on one
// node can be served from another node's DRAM instead of the backend.
//
// Every remote dependency here is treated as unreliable: directory and peer
// failures are counted, the failing peer connection is discarded (the next
// request re-dials), and the caller always degrades to a backend read —
// a sick peer must never stall the training pipeline.
//
// # Locking contract
//
// Everything in this file runs OUTSIDE the server's policy lock:
//
//   - scatterToPeers (the miss path's one peer step, reached only through
//     resolveMissBatch) and claimOwnership perform directory and peer I/O and
//     must be called with NO server lock held; their callers hold only the
//     singleflight keys they lead.
//   - distState.mu guards only the peer-connection cache. It is a leaf
//     lock held across nothing but map access and Dial; it never nests
//     with policyMu or payload-store shard locks.
//   - Serving a peer's opPeerGetBatch (serve_vec.go) touches only the payload
//     store (shard-locked reads) and atomics — peer reads never take policyMu
//     and never mutate this node's cache policy state, so a peer storm cannot
//     stall local serving decisions.
//   - peerFetchBatch takes policyMu once per answered chunk, after the RPC,
//     to drop local duplicates of samples a peer owns.
//   - releaseOwnership may be called under policyMu (the eviction
//     observer fires it); it only queues the id for the server's release
//     worker, so no network I/O ever happens under the lock.

// PeerConfig tunes the batched remote data plane (the -peer-batch and
// -peer-inflight flags). SetPeerConfig installs it before Serve.
type PeerConfig struct {
	// Batch caps how many of a mini-batch's remote misses ride one
	// opPeerGetBatch RPC to one owner (<= 0 selects 256).
	Batch int
	// Inflight bounds in-flight frames per multiplexed peer connection
	// (<= 0 selects the client default).
	Inflight int
	// RPCTimeout bounds every peer round trip (<= 0 selects 1s): one hung
	// replica can stall a scatter-gather chunk for at most this long before
	// the chunk degrades to the backend.
	RPCTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a peer's
	// circuit breaker (0 selects the overload-package default; < 0 disables
	// breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is the open-state cooldown before a half-open probe
	// (<= 0 selects the overload-package default).
	BreakerCooldown time.Duration
}

// defaultPeerRPCTimeout is the per-call bound on peer RPCs: long enough for
// a loaded peer to answer a full batch, short enough that a black-holed
// replica costs one bounded stall, not a TCP timeout.
const defaultPeerRPCTimeout = time.Second

func (c PeerConfig) withDefaults() PeerConfig {
	if c.Batch <= 0 {
		c.Batch = 256 // above any mini-batch clients send: one RPC per owner
	}
	if c.Inflight <= 0 {
		c.Inflight = transport.DefaultMuxInflight
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = defaultPeerRPCTimeout
	}
	return c
}

// SetPeerConfig tunes the batched remote data plane. Call after
// EnableDistributed and before Serve (the serving path reads the config
// without synchronization). A no-op on a non-distributed server.
func (s *Server) SetPeerConfig(cfg PeerConfig) {
	if s.dist == nil {
		return
	}
	s.dist.peerCfg = cfg.withDefaults()
}

// distState is the optional distributed wiring of a Server.
type distState struct {
	nodeID dkv.NodeID
	dir    dkv.Service
	// dirCtx is dir when it can carry a request's trace context and deadline
	// to the directory hop (*dkv.DirClient and *dkv.ShardedDir can; in-process
	// and fault-injecting directories cannot, and cannot hang either). Probed
	// once, at EnableDistributed.
	dirCtx    dkv.CtxService
	peerAddrs map[dkv.NodeID]string
	peerCfg   PeerConfig

	// journal, when set, receives breaker-transition events (copied from
	// the server's journal at EnableDistributed / SetJournal time).
	journal *obs.Journal

	mu sync.Mutex
	// peers holds one client — one pipelined connection — per peer node.
	peers map[dkv.NodeID]*Client
	// breakers holds one circuit breaker per peer NODE (not per client):
	// the breaker must survive dropPeer/redial churn, or a flapping peer
	// would reset its own failure count by breaking connections. Guarded by
	// mu for map access; the Breaker itself is internally synchronized.
	breakers map[dkv.NodeID]*overload.Breaker

	peerServes   int64 // requests this node answered for peers (atomic)
	peerHits     int64 // local misses served from a peer's cache (atomic)
	peerFailures int64 // peer dials/reads that failed (atomic)
	dirFailures  int64 // directory operations that failed (atomic)

	peerBatchRPCs    int64 // opPeerGetBatch RPCs issued to peers (atomic)
	peerBatchSamples int64 // samples carried by those RPCs (atomic)

	owners ownerMemo // the directory's answers this node remembers

	// Wall-clock membership loop state (see lifecycle.go); memStop is nil
	// until StartMembership.
	memCfg   MembershipConfig
	memStop  chan struct{}
	memWG    sync.WaitGroup
	memMu    sync.Mutex // guards mem, lastBeat, scrubMark
	mem      metrics.MembershipStats
	lastBeat time.Time
	// scrubMark is the anti-entropy watermark into this node's sorted
	// resident set (bounded sweeps eventually cover everything).
	scrubMark int

	// releases feeds the release worker the evicted samples whose ownership
	// it hands back; releaseStop ends the worker (Close).
	releases    chan dataset.SampleID
	releaseStop chan struct{}
	releaseWG   sync.WaitGroup
}

// releaseQueueLen bounds the evictions whose directory release is still to be
// sent (8 bytes each). One worker drains it, so a stalled directory parks one
// goroutine for one RPCTimeout per write, not one per eviction. The queue is
// deep enough for a whole epoch's burst on a starved host (EXPERIMENTS.md,
// PR 23: a 1024-entry queue lost 34 122 of 36 303 releases there, this one
// none, when the worker sent one release per round trip); what does not fit
// is counted as a directory failure and the scrubber releases it.
const releaseQueueLen = 1 << 16

// EnableDistributed joins the server to a directory service and a peer set.
// nodeID must be unique across the deployment; peerAddrs maps the *other*
// nodes' IDs to their cache-service addresses. dir is typically a
// *dkv.DirClient, but any dkv.Service works — including a fault-injecting
// faults.Dir in chaos tests. Call before Serve.
func (s *Server) EnableDistributed(nodeID dkv.NodeID, dir dkv.Service, peerAddrs map[dkv.NodeID]string) {
	dirCtx, _ := dir.(dkv.CtxService)
	s.dist = &distState{
		nodeID:    nodeID,
		dir:       dir,
		dirCtx:    dirCtx,
		peerAddrs: peerAddrs,
		peerCfg:   PeerConfig{}.withDefaults(),
		peers:     make(map[dkv.NodeID]*Client),
		breakers:  make(map[dkv.NodeID]*overload.Breaker),
		journal:   s.journal,

		releases:    make(chan dataset.SampleID, releaseQueueLen),
		releaseStop: make(chan struct{}),
	}
	s.dist.owners.words = make([]atomic.Uint64, s.source.Spec().NumSamples)
	s.dist.releaseWG.Add(1)
	go s.dist.releaseLoop()
}

// ownerMemo is the directory's last answer for each id the node asked about in
// the current generation: one word per dataset id, the generation in the high
// half and 0 (unowned) or node+1 in the low half, so a read or a write is one
// atomic and forgetting everything is one increment. The generation moves at
// every epoch boundary, re-registration and scrub sweep. An answer is a routing
// hint: a stale one costs a read (a peer miss, or a backend read in place of a
// peer read), never a wrong byte or a second owner, since admission claims.
type ownerMemo struct {
	gen    atomic.Uint32 // the current generation is gen+1: a zero word is never current
	words  []atomic.Uint64
	routed atomic.Int64 // miss ids routed without a directory call
	stale  atomic.Int64 // remembered answers contradicted
}

// generation is what an answer is recorded under; forgetAll starts the next.
func (m *ownerMemo) generation() uint32 { return m.gen.Load() + 1 }
func (m *ownerMemo) forgetAll()         { m.gen.Add(1) }

// owner reports id's remembered answer, if it has one in this generation.
func (m *ownerMemo) owner(id dataset.SampleID) (o dkv.Owner, ok bool) {
	if uint64(id) < uint64(len(m.words)) {
		w := m.words[id].Load()
		if ok = uint32(w>>32) == m.generation(); ok && uint32(w) > 0 {
			o = dkv.Owner{Node: dkv.NodeID(uint32(w) - 1), Found: true}
		}
	}
	return o, ok
}

// put records o as id's answer unless the generation moved since gen was
// read: an answer that crossed a boundary is dropped.
func (m *ownerMemo) put(gen uint32, id dataset.SampleID, o dkv.Owner) {
	var code uint64
	if o.Found {
		code = uint64(o.Node) + 1
	}
	if uint64(id) < uint64(len(m.words)) && code>>32 == 0 && gen == m.generation() {
		m.words[id].Store(uint64(gen)<<32 | code)
	}
}

// forget drops id's answer because something contradicted it (counted stale
// when it was current); the next miss asks the directory again.
func (m *ownerMemo) forget(id dataset.SampleID) {
	if uint64(id) < uint64(len(m.words)) && uint32(m.words[id].Swap(0)>>32) == m.generation() {
		m.stale.Add(1)
	}
}

// breakerLocked returns (creating on demand) the node's circuit breaker.
// Caller holds d.mu. Returns nil when breakers are disabled
// (BreakerThreshold < 0).
func (d *distState) breakerLocked(node dkv.NodeID) *overload.Breaker {
	if d.peerCfg.BreakerThreshold < 0 {
		return nil
	}
	b, ok := d.breakers[node]
	if !ok {
		b = overload.NewBreaker(overload.BreakerConfig{
			Threshold: d.peerCfg.BreakerThreshold,
			Cooldown:  d.peerCfg.BreakerCooldown,
		})
		if j := d.journal; j != nil {
			peer := node
			b.OnStateChange(func(old, next overload.BreakerState) {
				// Runs under the breaker mutex; the journal's striped
				// append is the only lock taken.
				j.Add(obs.EventBreaker, int64(peer), int64(old), int64(next),
					"peer breaker "+old.String()+"→"+next.String())
			})
		}
		d.breakers[node] = b
	}
	return b
}

// PeerBreakerStats snapshots every peer's circuit breaker state (nil when
// distribution is disabled).
func (s *Server) PeerBreakerStats() map[dkv.NodeID]overload.BreakerStats {
	if s.dist == nil {
		return nil
	}
	s.dist.mu.Lock()
	defer s.dist.mu.Unlock()
	if len(s.dist.breakers) == 0 {
		return nil
	}
	out := make(map[dkv.NodeID]overload.BreakerStats, len(s.dist.breakers))
	for node, b := range s.dist.breakers {
		out[node] = b.Stats()
	}
	return out
}

// PeerStats reports (requests served for peers, local misses served by
// peers); zeros when distribution is disabled.
func (s *Server) PeerStats() (served, hits int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerServes), atomic.LoadInt64(&s.dist.peerHits)
}

// ResilienceStats reports (peer failures, directory failures) — remote
// operations that failed and were degraded around; zeros when distribution
// is disabled.
func (s *Server) ResilienceStats() (peerFailures, dirFailures int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerFailures), atomic.LoadInt64(&s.dist.dirFailures)
}

// peer returns the (cached) client for the given node, dialing it on first
// use. Peer clients use the tight retry.Peer policy: degrading to the backend
// beats waiting.
func (d *distState) peer(node dkv.NodeID) (*Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.peers[node]; ok {
		return c, nil
	}
	addr, ok := d.peerAddrs[node]
	if !ok {
		return nil, fmt.Errorf("rpc: no address for peer node %d", node)
	}
	c, err := DialConfigured(addr, DialConfig{
		Timeout:     2 * time.Second,
		Policy:      retry.Peer(),
		MuxInflight: d.peerCfg.Inflight,
		RPCTimeout:  d.peerCfg.RPCTimeout,
		Breaker:     d.breakerLocked(node),
	})
	if err != nil {
		// A failed dial is a peer failure too: report it so a DEAD peer
		// (not just a hung one) trips its breaker and fails fast.
		if b := d.breakerLocked(node); b != nil {
			b.Report(time.Now(), false)
		}
		return nil, err
	}
	d.peers[node] = c
	return c, nil
}

// isConnFailure reports whether a peer RPC error indicates a poisoned
// connection (worth a dropPeer + redial). Overload rejections and deadline
// expiries arrive over a perfectly healthy exchange — redialing on them
// would add dial churn to a peer that is busy shedding load.
func isConnFailure(err error) bool {
	return !overload.IsOverload(err) && !errors.Is(err, ErrDeadlineExceeded)
}

// dropPeer discards a cached peer client after a failure so the next
// request re-dials instead of reusing a poisoned connection (a client a
// racing caller already replaced is only closed).
func (d *distState) dropPeer(node dkv.NodeID, c *Client) {
	d.mu.Lock()
	if d.peers[node] == c {
		delete(d.peers, node)
	}
	d.mu.Unlock()
	c.Close()
}

// closePeers tears down cached peer connections (on server Close).
func (d *distState) closePeers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for node, c := range d.peers {
		c.Close()
		delete(d.peers, node)
	}
}

// PeerGetBatchDeadline asks a peer cache node for many resident samples in
// one round trip. ctx is a trace context addressed to the peer (the caller
// passes its own context's Next(); zero = untraced). dl is the originating
// request's deadline: the remaining budget rides a deadline envelope so the
// peer can drop the read server-side once it is unservable, and the local wait
// is cut off at the same instant; zero falls back to the client's configured
// RPCTimeout. The result is aligned with ids: out[i] is the payload when the
// peer had ids[i], nil when it did not (a peer miss is not an error).
// The payloads alias the response frame: owner is the pooled buffer behind it
// (nil when the transport read outside the pool), for the caller to hand back
// with wire.PutBuffer once no payload is referenced any more, or to drop.
func (c *Client) PeerGetBatchDeadline(ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) (out [][]byte, owner *wire.Buffer, err error) {
	if len(ids) == 0 {
		return nil, nil, nil
	}
	var e wire.Buffer
	transport.AppendEnvelopes(&e, ctx, dl)
	e.U8(opPeerGetBatch)
	appendIDList(&e, ids)
	d, owner, err := c.call(e.B, dl)
	if err != nil {
		return nil, nil, err
	}
	out, err = decodePeerGetBatchResponse(d, len(ids))
	return out, owner, err
}

// scatterToPeers is the scatter half of the miss path: one directory
// multi-lookup for the keys (singleflight keys the caller leads) with no
// remembered owner, then one batched peer RPC per owning node. Keys a peer
// satisfied are finished here; the rest — unowned, owned by this node, peer
// misses, peer or directory failures — are returned for the backend gather,
// so every key is finished exactly once between the two. Its working set, the
// returned keys included, lives in sc. Called with no server lock held.
func (s *Server) scatterToPeers(sc *serveScratch, keys []missKey, ctx obs.TraceCtx, dl time.Time) []missKey {
	// Re-check the store under the flight happens-before edge: a racing
	// fetch or prefetch may have filled entries between the miss scan and
	// our Begin, and a fresh local copy beats a directory round trip.
	for _, k := range keys {
		if p, ok := s.payloads.get(k.id); ok {
			s.flight.Finish(int64(k.id), k.c, p, nil)
		} else {
			sc.remaining = append(sc.remaining, k)
		}
	}
	if keys = sc.remaining; len(keys) == 0 {
		return nil
	}

	// Keys with a remembered owner are routed at once; one directory round trip
	// answers the rest (a failure degrades them to backend reads, counted).
	dist := s.dist
	ask := keys[:0]
	for _, k := range keys {
		if o, ok := dist.owners.owner(k.id); ok {
			dist.group(sc, k, o)
		} else {
			ask = append(ask, k)
		}
	}
	dist.owners.routed.Add(int64(len(keys) - len(ask)))
	if len(ask) > 0 {
		sc.keyIDs = keyIDs(sc.keyIDs[:0], ask)
		owners := s.dirLookupBatch(dist, sc.keyIDs, ctx, dl)
		if owners == nil {
			sc.local = append(sc.local, ask...)
		}
		for i, o := range owners {
			dist.group(sc, ask[i], o)
		}
	}

	// Scatter: one RPC per owning node (chunked at PeerConfig.Batch), so the
	// peer RPC count per mini-batch is O(owning nodes), not O(misses). The
	// only chunk — or the last — is served on this goroutine and a goroutine
	// started for each chunk before it, so misses with one owner spawn nothing.
	// Each chunk's remote hits are finished as soon as that peer answers; its
	// misses and failures join sc.local. (A pooled scratch keeps the nodes it
	// has seen, with empty groups.)
	var node dkv.NodeID
	var chunk []missKey
	for n, group := range sc.groups {
		for ; len(group) > 0; group = group[min(len(group), dist.peerCfg.Batch):] {
			if chunk != nil {
				sc.wg.Add(1)
				go func(node dkv.NodeID, chunk []missKey) {
					defer sc.wg.Done()
					s.peerFetchBatch(sc, nil, node, chunk, ctx, dl)
				}(node, chunk)
			}
			node, chunk = n, group[:min(len(group), dist.peerCfg.Batch)]
		}
	}
	if chunk != nil { // the lookup's id list is done with
		sc.keyIDs = slices.Grow(sc.keyIDs[:0], len(chunk))
		s.peerFetchBatch(sc, sc.keyIDs, node, chunk, ctx, dl)
	}
	sc.wg.Wait()
	return sc.local
}

// group files k with its owner's peer group, or with the backend's keys.
func (d *distState) group(sc *serveScratch, k missKey, o dkv.Owner) {
	if o.Found && o.Node != d.nodeID {
		sc.groups[o.Node] = append(sc.groups[o.Node], k)
	} else {
		sc.local = append(sc.local, k)
	}
}

// keyIDs appends the ids of keys to ids.
func keyIDs(ids []dataset.SampleID, keys []missKey) []dataset.SampleID {
	for _, k := range keys {
		ids = append(ids, k.id)
	}
	return ids
}

// peerFetchBatch issues one opPeerGetBatch RPC to node for keys, finishing
// the singleflight key of every sample the peer returned (after dropping
// any local duplicate copies under one policyMu hold: a sample owned
// elsewhere is never kept here). The keys the peer did NOT satisfy join
// sc.local; any transport failure degrades the whole chunk to the backend.
// ids is where the RPC's id list is built (nil on a second owner's goroutine).
//
// The keys are finished with bytes BORROWED from the answer's buffer — a
// flight someone joined hands out a copy — so the request stays the buffer's
// only reader, and releaseScratch recycles it once the response is written.
func (s *Server) peerFetchBatch(sc *serveScratch, ids []dataset.SampleID, node dkv.NodeID, keys []missKey, ctx obs.TraceCtx, dl time.Time) {
	res, owner := s.peerGetBatch(ids, node, keys, ctx, dl)
	if res != nil {
		// Owned elsewhere: this node must not keep duplicates. One short
		// policyMu hold covers the whole chunk.
		s.policyMu.Lock()
		for i, k := range keys {
			if res[i] != nil && s.cache.DropFor(k.id, dkv.DropDeadOwner) {
				s.payloads.delete(k.id)
			}
		}
		s.policyMu.Unlock()
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	misses := len(sc.local)
	for i, k := range keys {
		if res == nil || res[i] == nil { // the peer failed or answered absent
			s.dist.owners.forget(k.id)
			sc.local = append(sc.local, k)
		} else {
			s.flight.FinishBorrowed(int64(k.id), k.c, res[i], nil)
		}
	}
	atomic.AddInt64(&s.dist.peerHits, int64(len(keys)-(len(sc.local)-misses)))
	if owner != nil {
		sc.peerBufs = append(sc.peerBufs, owner)
	}
}

// peerGetBatch is peerFetchBatch's round trip: node's answer aligned with keys
// and the buffer behind it, or nil when the peer could not be asked or did not
// answer (counted) — the whole chunk then goes to the backend.
func (s *Server) peerGetBatch(ids []dataset.SampleID, node dkv.NodeID, keys []missKey, ctx obs.TraceCtx, dl time.Time) ([][]byte, *wire.Buffer) {
	dist := s.dist
	// An already-spent budget skips the peer RPC outright — the backend
	// fallback still runs, because every singleflight key this chunk leads
	// MUST be finished (waiters would deadlock otherwise); the response is
	// late either way, so conservation beats a doomed round trip.
	if !dl.IsZero() && !time.Now().Before(dl) {
		return nil, nil
	}
	peer, err := dist.peer(node)
	if err != nil {
		atomic.AddInt64(&dist.peerFailures, 1)
		return nil, nil
	}
	atomic.AddInt64(&dist.peerBatchRPCs, 1)
	atomic.AddInt64(&dist.peerBatchSamples, int64(len(keys)))
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	res, owner, err := peer.PeerGetBatchDeadline(keyIDs(ids, keys), ctx.Next(), dl)
	if measure {
		dur := time.Since(t0)
		s.obs.peerBatch.Record(dur)
		s.span(trace.KindRPCSend, 0, spanArgPeer, ctx, dur)
	}
	if err != nil {
		atomic.AddInt64(&dist.peerFailures, 1)
		// Only a transport-level failure poisons the connection. An overload
		// rejection (breaker open, retry-after, server-side expiry) or a
		// deadline timeout came from a healthy protocol exchange — dropping
		// the client would just churn dials while the peer sheds load.
		if isConnFailure(err) {
			dist.dropPeer(node, peer)
		}
		return nil, nil
	}
	return res, owner
}

// dirLookupBatch, the one door to the directory's lookup, resolves ownership
// for many ids in one operation timed into the dir_lookup_batch stage, and
// remembers the answers under the generation read before asking. A failure
// (or a short answer) counts one directory failure and returns nil.
func (s *Server) dirLookupBatch(dist *distState, ids []dataset.SampleID, ctx obs.TraceCtx, dl time.Time) []dkv.Owner {
	gen := dist.owners.generation()
	measure := s.obs.histsOn() || s.obs.tracing(ctx)
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	var owners []dkv.Owner
	var err error
	if dist.dirCtx != nil {
		owners, err = dist.dirCtx.LookupBatchCtx(ids, ctx.Next(), dl)
	} else {
		owners, err = dist.dir.LookupBatch(ids)
	}
	if measure {
		dur := time.Since(t0)
		s.obs.dirBatch.Record(dur)
		s.span(trace.KindRPCSend, 0, spanArgDir, ctx, dur)
	}
	if err != nil || len(owners) != len(ids) {
		atomic.AddInt64(&dist.dirFailures, 1)
		return nil
	}
	for i, id := range ids {
		dist.owners.put(gen, id, owners[i])
	}
	return owners
}

// PeerBatchStats reports (batched peer RPCs issued, samples carried by
// them); zeros when distribution is disabled.
func (s *Server) PeerBatchStats() (rpcs, samples int64) {
	if s.dist == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.dist.peerBatchRPCs), atomic.LoadInt64(&s.dist.peerBatchSamples)
}

// claimOwnership registers this node in the directory for a sample it just
// admitted. It reports whether the node may keep the copy and, when not, why
// it goes: another node owns the sample (dead-owner; the remembered answer is
// stale), or the claim got no answer (dir-unavailable: counted as a directory
// failure, and the copy goes because unregistered ownership would invite
// duplication). Distributed servers only (admit skips the claim on a lone
// one). Must be called with no server lock held: it is a directory round trip.
func (s *Server) claimOwnership(id dataset.SampleID) (keep bool, why dkv.DropReason) {
	dist := s.dist
	ok, err := dist.dir.Claim(id, dist.nodeID)
	if err != nil {
		atomic.AddInt64(&dist.dirFailures, 1)
		return false, dkv.DropDirUnavailable
	}
	if !ok {
		dist.owners.forget(id)
	}
	return ok, dkv.DropDeadOwner
}

// releaseOwnership drops the directory entry for an evicted sample, best
// effort: eviction hooks run under policyMu, so the cache path never blocks on
// the directory — the id is handed to the release worker, or, with its queue
// full, the release is given up (counted) and left to the scrubber.
func (s *Server) releaseOwnership(id dataset.SampleID) {
	dist := s.dist
	if dist == nil {
		return
	}
	select {
	case dist.releases <- id:
	default:
		atomic.AddInt64(&dist.dirFailures, 1)
	}
}

// releaseLoop is the server's one release worker: until the server closes it
// takes everything queued, up to one frame's worth, and sends it in eviction
// order as one ReleaseAll. A release that did not reach the directory is
// counted as a directory failure.
func (d *distState) releaseLoop() {
	defer d.releaseWG.Done()
	ids := make([]dataset.SampleID, 0, dkv.MaxOwnBatch)
	for {
		select {
		case <-d.releaseStop:
			return
		case id := <-d.releases:
			ids = append(ids[:0], id)
			for len(ids) < cap(ids) && len(d.releases) > 0 { // the one receiver: cannot block
				ids = append(ids, <-d.releases)
			}
			done, err := dkv.ReleaseAll(d.dir, ids, d.nodeID)
			if err != nil {
				atomic.AddInt64(&d.dirFailures, int64(len(ids)-len(done)))
			}
		}
	}
}
