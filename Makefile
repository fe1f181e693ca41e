# Convenience targets for the iCache reproduction. Everything is plain
# stdlib Go; the Makefile only wraps the commands the README documents.

GO ?= go

.PHONY: all build vet lint test test-short test-race chaos chaos-vt benchmark benchmark-pairs benchmark-test bench bench-layers loadgen-smoke obs-smoke overload-smoke prefetch-smoke experiments experiments-quick experiments-check experiments-golden fuzz fuzz-short loc clean

all: build lint test test-race chaos chaos-vt fuzz-short obs-smoke overload-smoke loadgen-smoke prefetch-smoke experiments-check benchmark-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint gate: gofmt must produce no diffs (the target fails listing the
# offending files), go vet must be clean, and connections belong to
# internal/transport alone: the non-test files of the two protocol packages
# accept, dial, listen and set deadlines nowhere (calls, not comments), so a
# second transport cannot grow back unnoticed. Likewise there is one Algorithm 1
# (icache.Server.fetchOne) and one node lifecycle (dkv/lifecycle.go): the
# cluster simulation and the two lifecycle drivers read no backend, serve no
# L-sample and walk no directory scan of their own, and the simulated node has
# no degraded mode the shipped node lacks (a local-only window, a queue of
# deferred releases). And a cache node describes each flat series once: in the
# non-test files of internal/rpc an "icache_ literal and a PromWriter
# .Counter(/.Gauge(/.Metric( call occur only in series.go, the table /metrics and
# /debug/timeline are both loops over. And there is one prefetch queue: the
# plan builder (internal/rpc/plan.go) starts no goroutine and never sleeps or
# polls, and no server-side switch (SetClairvoyant) grows back — the client that
# sends a plan is the switch. And there is one framing on the wire: every
# exchange rides the mux session, so the non-test files of internal/transport
# name no CapMux or oneShot and call no WritePayload( (the bare frame a
# capability handshake or a one-shot retry connection would write). And a node
# has one door to the directory's lookup: in the non-test files of
# internal/rpc, LookupBatch( and LookupBatchCtx( are called only inside
# dirLookupBatch, which remembers the answers, so no path asks the directory
# around the remembered owners. And there is one prefetcher, the epoch plan:
# the non-test files of internal/icache and internal/rpc name no loader
# delivery observer (SetLoadObserver, onDeliver, loadObs), no reactive queue
# bound (reactivePerWorker) and no pool size apart from the read budget
# (PrefetchWorkers), comments included. And there is one bounded ring,
# obs.Ring: no other non-test file of internal/obs or internal/trace keeps a
# ring cursor (a "% len(" or a filled flag), and no non-test file names
# journalStripe (the journal's lock stripes) or EntriesTotal (a plan counter
# that only ever equalled icache_prefetch_issued_total). And the wire reads the
# policy engine's numbers through one value, icache.Server.View: the non-test
# files of internal/rpc call no single-number accessor (HCacheLen(, LCacheLen(,
# PackagesLoaded(, LoaderUsefulBytes(, LoaderWastedBytes(, Tier2Len(,
# Tier2Hits(, DecisionLedger( or .Epoch()) and export no icache_tier2_ series
# (no shipped binary has a spill tier). And no option has one value in use:
# no non-test Go file names a retired simulator knob (PackageBytes,
# RepackPerSample, BenefitThreshold, FreqDecay, PeerLatency, PeerBandwidth,
# ProbeBatches, CISConfig, DefaultCIS — each is a constant now, and the hit
# cost is storage.HitLatency, not a ServiceConfig), icache.Config's
# Clairvoyant switch (checked in internal/icache: a client that sends its
# plan is the one switch), or code no run reached (EventQueue, WrapSource,
# WrapDirScoped, composeStatic, IsPermanent, the always-zero
# icache_loader_wasted_ series), comments excepted, and no
# shipped config keeps a knob only tests set: overload.GateConfig names no
# Window, ShedWindows, FloorRate or FloorBurst, BreakerConfig no Cooldown,
# rpc.PeerConfig no Inflight or BreakerCooldown, rpc.MembershipConfig no
# HeartbeatInterval, ScrubInterval or ScrubBatch, loadgen.Config no
# DialTimeout and train.Config no PreprocessPerSample, PrefetchFactor,
# TrackerInit or TrackerDecay (each a constant, or derived from the lease
# TTL), SetSlowRequestLog takes no minInterval, and icache-server has no
# -heartbeat-interval, -scrub-interval, -peer-inflight, -h-share or -no-lcache
# flag (the last two only ever held icache.DefaultConfig's values). And there is
# one training loop, train.Job, and a single job is its one-node case: the
# non-test files of internal/train name no DistJob, runEpoch or
# consumeIteration, and only job.go asks the fetch engine whether a batch is
# ready (.batchReady(). And the wire reads its packages' bytes: the non-test
# files of internal/rpc call no storage-model read (ReadPackage( or
# ReadSample(, comments excepted) — a package is composed by the policy engine
# and read by the prefetch pool's member reads. And there is one learner,
# train.Learner, which train.Job and every wire client train through: no
# non-test file under cmd/ or examples/ calls NewTracker( or NewLossModel(,
# comments excepted (benchmark/ keeps its own copy of the loop). And there is
# one fault-tested stack, the shipped one: faults, leases, node kills and
# replica crashes are replayed on rpc.Server and dkv in a virtual-clock
# bubble, so no non-test file of internal/icache names a simulated crash or
# fault hook (KillNode, RestartNode, SetFaultInjector, DirReplicas), and no
# non-test file outside internal/vt calls testing/synctest (go1.25 renames
# its Run; one helper changes). And there is one wire epoch,
# train.RunWireEpoch: no non-test file under cmd/, examples/ or
# internal/loadgen draws an IIS schedule, pushes an H-list or crosses an epoch
# boundary itself (IISSchedule(, .UpdateImportance(, .BeginEpoch( or
# .BeginEpochPlan(, comments excepted; benchmark/ keeps its own copy of the
# loop). And tests control time one way, the virtual-clock bubble
# (internal/vt): no Go file imports a goroutine-leak poller
# (icache/internal/leakcheck; a bubble ends only when its goroutines have),
# and no non-test file of internal/dkv, internal/faults or internal/obs grows
# an injected clock back — names SetClock( or DecideAt( or declares a
# Clock func() field, comments excepted (inside a bubble time.Now is the
# virtual clock). And tests have one fault substrate: no _test.go file
# declares a hand-rolled stall, hold or slow-connection fixture again (a test
# slows a source or a connection with an internal/faults delay rule and holds
# a fetch with internal/rpc's one heldSource), and none polls with
# time.Sleep(time.Millisecond) (a bubble test waits at vt.Wait, any other on
# an event). And the daemons share one operator shell (cmd/internal/shell, with
# trace.Recorder.DumpFile): no other non-test file under cmd/ imports
# net/http/pprof or calls WriteCSVLimited( or os.Rename(, so a second debug
# mux or trace dump cannot grow back beside it. And the paper's baselines run
# Algorithm 1's fetch path too: a baseline is icache.Server over a
# cache.Policy, so the non-test files of internal/cache read no backend
# (ReadSample( or ReadPackage(, comments excepted) and declare no FetchBatch
# method, and icache/baseline.go reads no backend of its own. And there is one
# loading rule, the package-reader seam: in the non-test files of
# internal/icache, composePackage( is called once, in composeNext, and no
# pump( or pending names a second loading thread's queue (comments excepted).
# And the engine charges its storage model in one layer, the virtual-time
# reader that SetPackageReader drops: in the non-test files of internal/icache,
# ReadSample( and ReadPackage( occur only in vtReader methods, and no file but
# loader.go names .backend (comments excepted). And a shipped node has one
# directory client, the sharded one (a single -dir address is a one-replica
# ring): no non-test file under cmd/ calls dkv.DialDir( or
# dkv.DialDirConfigured(. And a request's envelopes have one encoder,
# transport.AppendEnvelopes: no non-test file of internal/rpc or internal/dkv
# names transport.OpDeadline or transport.OpTraced (comments excepted). And the
# baselines keep one byte ledger, cache.Policy, under every eviction order: in
# the non-test files of internal/cache the eviction count is incremented on
# one line, the one eviction loop, and no type, interface or func field but
# Policy's method declares Admit( (comments excepted).
# Subsumes `vet` in `make all`.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go internal/dkv/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE '\.Accept\(\)|net\.Dial[A-Za-z]*\(|net\.Listen\(|SetDeadline\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "connection handling outside internal/transport:"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in internal/icache/distributed.go internal/icache/baseline.go internal/rpc/lifecycle.go; do \
		sed 's,//.*,,' $$f | grep -nE 'ReadSample\(|takeExact\(|\.OwnedBy\(|\.PurgeDead\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second Algorithm 1 or node lifecycle outside icache.Server / dkv.Member:"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/icache/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'downUntil|deferred|LocalOnly' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a simulator-only degraded mode (rpc.Server counts a directory failure and asks again):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go | grep -v -e _test.go -e /series.go); do \
		sed 's,//.*,,' $$f | grep -nE '"icache_|\.(Counter|Gauge|Metric)\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a flat series described outside internal/rpc/series.go (add a row to its table instead):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(sed 's,//.*,,' internal/rpc/plan.go | grep -nE '(^|[^A-Za-z0-9_])go [A-Za-z_(]|time\.(After|Sleep)\(' | sed "s,^,internal/rpc/plan.go:,"; \
		grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'SetClairvoyant' .); \
	if [ -n "$$stray" ]; then \
		echo "a second prefetch drain (a plan is entries in the prefetch pool's one queue; the client's plan is the switch):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/transport/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'CapMux|oneShot|WritePayload\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second exchange path (every frame rides the mux session; a bare frame is refused):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | awk -v f=$$f '/^func /{door = /\) dirLookupBatch\(/} \
			/(^|[^A-Za-z0-9_])LookupBatch(Ctx)?\(/ && !door {print f ":" NR ":" $$0} /^}/{door = 0}'; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a directory lookup around the remembered owners (ask through dirLookupBatch):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(grep -nwE 'SetLoadObserver|onDeliver|loadObs|reactivePerWorker|PrefetchWorkers' \
		$$(ls internal/icache/*.go internal/rpc/*.go | grep -v _test.go)); \
	if [ -n "$$stray" ]; then \
		echo "a second prefetch feeder or pool size (the epoch plan is the one prefetcher; the read budget bounds it):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/obs/*.go internal/trace/*.go | grep -v -e _test.go -e /ring.go); do \
		sed 's,//.*,,' $$f | grep -nE '% len\(|[^A-Za-z0-9_]filled([^A-Za-z0-9_]|$$)' | sed "s,^,$$f:,"; \
	done; grep -rnw --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build -e journalStripe -e EntriesTotal .); \
	if [ -n "$$stray" ]; then \
		echo "a second bounded ring or dead bookkeeping (obs.Ring is the one ring; the journal has no stripes; issued counts plan entries):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE '(HCacheLen|LCacheLen|PackagesLoaded|LoaderUsefulBytes|LoaderWastedBytes|Tier2Len|Tier2Hits|DecisionLedger)\(|\.Epoch\(\)|icache_tier2_' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a policy-engine number read around icache.Server.View, or a tier-2 series on the wire:"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(grep -rnw --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
			-e EnableReplica -e RingViewExchange -e opRingView -e opHandoff -e EventHandoff -e DropNotOwned .; \
		grep -HnE 'replica-id|ring-interval|handoff-batch' cmd/icache-dkv/*.go); \
	if [ -n "$$stray" ]; then \
		echo "a second ring view (replicas hold none; the sharded client's view is the only one):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*'); do \
		sed 's,//.*,,' $$f | grep -nwE 'EventQueue|WrapSource|WrapDirScoped|ServiceConfig|composeStatic|IsPermanent|PackageBytes|RepackPerSample|BenefitThreshold|FreqDecay|PeerLatency|PeerBandwidth|ProbeBatches|CISConfig|DefaultCIS' | sed "s,^,$$f:,"; \
		sed 's,//.*,,' $$f | grep -nF 'icache_loader_wasted_' | sed "s,^,$$f:,"; \
	done; for f in $$(ls internal/icache/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nw 'Clairvoyant' | sed "s,^,$$f:,"; \
	done; for f in $$(ls internal/overload/*.go internal/rpc/*.go internal/loadgen/*.go internal/train/*.go cmd/icache-server/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | awk -v f=$$f '/^type [A-Za-z]+ struct \{/{s = $$2} /^}/{s = ""} \
			s ~ /^(GateConfig|BreakerConfig|PeerConfig|MembershipConfig|Config)$$/ && \
			/^[[:space:]]*(Window|ShedWindows|FloorRate|FloorBurst|Cooldown|BreakerCooldown|Inflight|HeartbeatInterval|ScrubInterval|ScrubBatch|DialTimeout|PreprocessPerSample|PrefetchFactor|TrackerInit|TrackerDecay)[^A-Za-z0-9_]/ \
			{print f ":" NR ":" $$0}'; \
		sed 's,//.*,,' $$f | grep -nE 'SetSlowRequestLog\([^)]*,|minInterval' | sed "s,^,$$f:,"; \
	done; grep -HnE 'heartbeat-interval|scrub-interval|peer-inflight|h-share|no-lcache' cmd/icache-server/*.go); \
	if [ -n "$$stray" ]; then \
		echo "a dial nobody turns or a path nothing reaches (the simulator's fixed costs are constants, and so are the shipped stack's knobs only tests set; static packaging is fetchStaticChunk alone):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/train/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nwE 'DistJob|runEpoch|consumeIteration' | sed "s,^,$$f:,"; \
		[ $$f = internal/train/job.go ] || sed 's,//.*,,' $$f | grep -nF '.batchReady(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second training loop (train.Job runs N nodes; a single job is the one-node case):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'ReadPackage\(|ReadSample\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a storage-model read on the wire (packages are read by the prefetch pool's member reads):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(find cmd examples -name '*.go' ! -name '*_test.go'); do \
		sed 's,//.*,,' $$f | grep -nE 'NewTracker\(|NewLossModel\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a hand-rolled training side (a client trains through train.Learner):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'synctest\.' . | grep -v '^\./internal/vt/'; \
		grep -nwE 'KillNode|RestartNode|SetFaultInjector|DirReplicas' $$(ls internal/icache/*.go | grep -v _test.go)); \
	if [ -n "$$stray" ]; then \
		echo "a second fault-tested stack (faults, leases and churn are tested on rpc.Server and dkv in a bubble; synctest is called only in internal/vt):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(find cmd examples internal/loadgen -name '*.go' ! -name '*_test.go'); do \
		sed 's,//.*,,' $$f | grep -nE 'IISSchedule\(|\.(UpdateImportance|BeginEpoch|BeginEpochPlan)\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second wire epoch (a client trains an epoch through train.RunWireEpoch):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(grep -rn --include='*.go' --exclude-dir=.bench_build '"icache/internal/leakcheck"' .; \
		for f in $$(ls internal/dkv/*.go internal/faults/*.go internal/obs/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'SetClock\(|DecideAt\(|^[[:space:]]*Clock[[:space:]]+func\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second way to control time in tests (a test runs in a vt bubble, where time.Now is the virtual clock):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(grep -rnE --include='*_test.go' --exclude-dir=.bench_build \
			-e 'type (slowFetchSource|slowSource|stallSource|slowGate|slowConn|slowListener|holdSource|gatedSource)[^A-Za-z0-9_]' \
			-e 'time\.Sleep\(time\.Millisecond\)' .); \
	if [ -n "$$stray" ]; then \
		echo "a second fault substrate or a wall-clock poll in tests (stall through faults.DelayEvery, hold through heldSource, wait at vt.Wait or on an event):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(find cmd -name '*.go' ! -name '*_test.go' ! -path 'cmd/internal/shell/*'); do \
		sed 's,//.*,,' $$f | grep -nE '"net/http/pprof"|WriteCSVLimited\(|os\.Rename\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second operator shell (a daemon mounts its debug surface and dumps its trace through cmd/internal/shell):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/cache/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'ReadSample\(|ReadPackage\(|^func \([^)]*\) FetchBatch' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a fetch loop beside the engine (a baseline is icache.NewBaselineServer over a cache.Policy):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(awk '{sub(/\/\/.*/, "")} /^func /{fn = $$0} /^}/{fn = ""} \
			/composePackage\(/ && !/^func / && (fn !~ /\) composeNext\(/ || ++n > 1) {print FILENAME ":" FNR ":" $$0} \
			/(^|[^A-Za-z0-9_])(pump\(|pending([^A-Za-z0-9_]|$$))/ {print FILENAME ":" FNR ":" $$0}' \
		$$(ls internal/icache/*.go | grep -v _test.go)); \
	if [ -n "$$stray" ]; then \
		echo "a second loading rule (composeNext composes every package):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(awk '{sub(/\/\/.*/, "")} /^func /{fn = $$0} /^}/{fn = ""} \
			/ReadSample\(|ReadPackage\(/ && fn !~ /^func \([A-Za-z_]+ \*vtReader\) / {print FILENAME ":" FNR ":" $$0} \
			/\.backend([^A-Za-z0-9_]|$$)/ && FILENAME != "internal/icache/loader.go" {print FILENAME ":" FNR ":" $$0}' \
		$$(ls internal/icache/*.go | grep -v _test.go)); \
	if [ -n "$$stray" ]; then \
		echo "a storage-model charge outside the virtual-time reader (vtReader is the engine's only handle on the model):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(find cmd -name '*.go' ! -name '*_test.go'); do \
		sed 's,//.*,,' $$f | grep -nE 'dkv\.DialDir(Configured)?\(' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second directory client on a shipped node (a daemon dials dkv.DialSharded, for one address or many):"; echo "$$stray"; exit 1; \
	fi
	@stray=$$(for f in $$(ls internal/rpc/*.go internal/dkv/*.go | grep -v _test.go); do \
		sed 's,//.*,,' $$f | grep -nE 'transport\.Op(Deadline|Traced)([^A-Za-z0-9_]|$$)' | sed "s,^,$$f:,"; \
	done); \
	if [ -n "$$stray" ]; then \
		echo "a second envelope encoder (a request's deadline and trace envelopes are written by transport.AppendEnvelopes):"; echo "$$stray"; exit 1; \
	fi
	@files=$$(ls internal/cache/*.go | grep -v _test.go); \
	stray=$$(for f in $$files; do \
		sed 's,//.*,,' $$f | grep -nE '^func (\([^)]*\) )?Admit\(|^[[:space:]]+Admit([[:space:]]+func)?[[:space:]]*\(' \
			| grep -vE '^[0-9]+:func \([A-Za-z_]+ \*Policy\) Admit\(' | sed "s,^,$$f:,"; \
	done; n=$$(for f in $$files; do sed 's,//.*,,' $$f; done | grep -cE '[Ee]vict[A-Za-z0-9_]*[[:space:]]*(\+\+|\+=)'); \
		[ "$$n" = 1 ] || echo "internal/cache: the eviction count is incremented on $$n lines"); \
	if [ -n "$$stray" ]; then \
		echo "a second cache ledger (cache.Policy owns the bytes and the one eviction loop; an order only promotes and names victims):"; echo "$$stray"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (the chaos tests double as lock
# coverage for every networked component, and the concurrent-clients
# suites in internal/rpc exercise the sharded store / singleflight /
# prefetch-pool interleavings). The virtual-clock tests run in their
# package's GOEXPERIMENT=synctest test binary, which vt.Run builds with
# -race too when the parent has it; the first such build rebuilds the
# standard library (about 40 s).
test-race:
	$(GO) test -race ./...

# Chaos suites only, three times with rotating seeds: -count defeats the
# test cache, and the suites' internal seed tables ([1, 42, 1337], the
# trial indices, and the injector seeds) cover distinct schedules per run.
# What is left here runs over loopback TCP (internal/rpc's mid-batch peer
# drop); the virtual-clock tests are chaos-vt's, so they are skipped.
#
# VT_TESTS is every test of VT_PKGS that runs in a bubble: a Test function of
# a _test.go file whose body calls vt.Run, or a helper of its package's
# tests that does (internal/rpc's inBubble and forSeeds).
VT_PKGS = internal/rpc internal/dkv internal/transport internal/obs internal/faults internal/retry internal/storage internal/singleflight
VT_TESTS = $$(for p in $(VT_PKGS); do \
	helpers=$$(awk '/^func /{f=$$2; sub(/\(.*/, "", f)} /vt\.Run\(/{print f}' $$p/*_test.go | grep -v '^Test' | sort -u | paste -sd'|'); \
	awk -v h="$$helpers" '/^func Test/{f=$$2; sub(/\(.*/, "", f)} /^}/{f=""} \
		f && ($$0 ~ /vt\.Run\(/ || (h != "" && $$0 ~ "(^|[^A-Za-z0-9_.])(" h ")\\(")) {print f}' $$p/*_test.go; \
	done | sort -u | paste -sd'|')
chaos:
	$(GO) test -count=3 -run 'Chaos' -skip "^($(VT_TESTS))$$" ./internal/rpc/
	$(GO) test -count=3 -race -run 'Chaos' -skip "^($(VT_TESTS))$$" ./internal/rpc/

# The virtual-clock tests (VT_TESTS), per package of VT_PKGS, ten times on
# one seed table, then once under the race detector: the shipped rpc.Server
# and dkv.DirServer on an in-memory network inside a testing/synctest bubble
# (internal/vt) under faults, node kills and directory replica crashes; the
# suites that were leak-checked on TCP (the combiner, the plan, the miss
# gather, the transport client); the lease, failover, fault-window and
# timeline clocks; the tests that waited on a wall clock (the delayed peer,
# the traced chains, the Close and routing tests, singleflight's join); and
# the retry schedule and the source's delay rule. Built with GOEXPERIMENT=synctest, so each runs in its
# bubble directly. The first build under the experiment rebuilds the
# standard library (about 20 s, 40 s more with -race). GOTRACEBACK=all makes
# a bubble that ends with a goroutine still blocked print that goroutine.
chaos-vt:
	@tests="$(VT_TESTS)"; for p in $(VT_PKGS); do \
		GOTRACEBACK=all GOEXPERIMENT=synctest $(GO) test -count=10 -run "^($$tests)$$" ./$$p/ || exit 1; \
		GOTRACEBACK=all GOEXPERIMENT=synctest $(GO) test -count=1 -race -run "^($$tests)$$" ./$$p/ || exit 1; \
	done

# The repository's one benchmark (BENCHMARK.json): the four workloads through
# benchmark/run.sh at the contract's run length, untraced, printing the three
# end-to-end metrics of each. BENCHMARK_SEED picks the workload seed. To
# compare two commits, run this in a checkout of each (see benchmark/README.md).
BENCHMARK_SEED ?= 1
benchmark:
	@for w in train_epochs hit_storm peer_churn overload_steps; do \
		echo "== $$w"; \
		out=$$(bash benchmark/run.sh --workload $$w --seed $(BENCHMARK_SEED) --seconds 25 --trace 0) \
			|| { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -E '^(samples_per_s|batch_p50_ms|setup_s) '; \
	done

# The paired-run table: PAIRS alternating runs of PARENT (a commit, exported
# into .bench_build/) and the working tree, each side built by its own
# benchmark/run.sh, pair i at seed i, odd pairs parent first; prints per
# workload and end-to-end metric both medians with quartiles, their ratio and
# the pairs won, plus every run's failed/correct. About 1.5 minutes per pair
# and workload.  make benchmark-pairs PARENT=HEAD~1 [PAIRS=10] [WORKLOADS="..."]
PAIRS ?= 10
WORKLOADS ?= train_epochs hit_storm peer_churn overload_steps
benchmark-pairs:
	@PARENT="$(PARENT)" PAIRS="$(PAIRS)" WORKLOADS="$(WORKLOADS)" bash scripts/benchmark-pairs.sh

# The benchmark is a module of its own (benchmark/go.mod), so the root
# `go test ./...` never reaches its tests; `make all` does, last.
#
# KNOWN RED since the concurrent miss gather (PR 13): TestSmoke fails on
# train_epochs, untraced AND traced, with "used ~1.02-1.25 CPU-seconds per
# wall second; it is meant to be I/O-bound" (1.45-1.52 before PR 17 made the
# synthetic payload cheap; ~0.2 before PR 13). At test scale that workload
# charges a nominal 50 us per backend read; once a request's reads overlap, a
# batch waits far less on I/O than it costs in CPU, so the smoke run is
# CPU-bound on this stack and the workload's own regime check says so. The
# full-scale workload (500 us) passes at 0.6-0.8. The fix is re-sizing the
# smoke run (or its check) under benchmark/, which only a `benchmark` PR may
# touch (EXPERIMENTS.md, "On the wire"). It is in `all` so the failure is
# seen, not skipped.
benchmark-test:
	cd benchmark && $(GO) test ./...

# One testing.B benchmark per paper table/figure (quick scale).
bench:
	$(GO) test -bench . -benchmem

# The per-layer testing.B benchmarks of the networked packages: serving path
# and wire codecs, the two-node peer plane (BenchmarkRemoteReadPath: one
# remote-read batch through the frame handler, -benchmem, with the owners
# forgotten before each batch and remembered, and the directory lookups per
# batch of each), observability
# overhead, the virtual-time sharded directory, the directory client's
# ownership-write combiner (BenchmarkOwnershipWrites: ns and frames per claim
# from 1 and 64 concurrent claimers), the L-cache package delivery
# (BenchmarkPackageDelivery: ns per member of the one policyMu hold that
# inserts, evicts and stores a package), the clairvoyant plan's epochs
# (BenchmarkPrefetchEpochs), the loadgen saturation and overload runs, and
# BenchmarkShortSleep (what the repository benchmark's 500 us backend sleep
# costs in an idle and in a busy process). Nothing is archived or compared:
# the benchmarks that gate anything carry their own b.Fatalf
# (BenchmarkLoadgenOverload: storm goodput >= 80% of the knee;
# BenchmarkPrefetchEpochs: see prefetch-smoke), and commit-to-commit
# comparison is `make benchmark-pairs`.
bench-layers:
	$(GO) test -run NONE -bench . -benchmem ./internal/rpc/ ./internal/wire/ ./internal/dkv/ ./internal/loadgen/

# Observability smoke: the exposition goldens (Prometheus text, the cache
# node's HELP/TYPE lines in order + the byte-pinned /debug/timeline document),
# the timeline-equals-exposition and adds-up-within-a-scrape checks, the
# histogram/quantile property tests, the envelope rejection table (one table,
# run against the transport's stub handler and both protocols' handlers),
# the two-node cross-node hop-chain round trips (including the chaos
# variant with injected peer faults), the decision-ledger conservation
# identities, the journal/timeline concurrency suite, and the icache-top
# scrape/render path against a fake two-node cluster. Fast enough to gate
# `make all` on; -count=1 defeats the test cache so the goldens are
# re-checked every run.
obs-smoke:
	$(GO) test -count=1 ./internal/obs/ ./internal/trace/ ./internal/top/
	$(GO) test -count=1 -run 'TestEnvelopeRejections' ./internal/transport/
	$(GO) test -count=1 -run 'TestEnvelopeRejections|TestPrometheusExposition|TestTraced|TestSlowRequest|TestObs|TestDebugObs|TestDecisionLedger|TestJournalRecords|TestTimelinePoint' ./internal/rpc/
	$(GO) test -count=1 -run 'TestDirTraced|TestDirEnvelope|TestDirObs' ./internal/dkv/

# Overload-control smoke: the admission gate / circuit breaker / deadline
# unit surface, the transport's one admission site (TestRoutes), the
# end-to-end shed and goodput classification paths, and the directory's
# per-call bound and deadline hop. Fast enough to gate `make all` on;
# -count=1 defeats the test cache.
overload-smoke:
	$(GO) test -count=1 ./internal/overload/
	$(GO) test -count=1 -run 'TestRoutes' ./internal/transport/
	$(GO) test -count=1 -run 'TestAdmissionShed|TestDeadline|TestTracedDeadline|TestRunOverloadClassification|TestRunGoodputTracksDeadline' ./internal/rpc/ ./internal/loadgen/
	$(GO) test -count=1 -run 'TestShardedDialBoundsASilentReplica|TestDirClientTimeout' ./internal/dkv/

# Two-second self-contained loadgen smoke (boots its own server, drives a
# short saturation run, fails on any request error): gates `make all` so
# the harness binary itself cannot rot.
loadgen-smoke:
	$(GO) run ./cmd/icache-loadgen -smoke

# The clairvoyant gate, once (about 0.6 s): internal/rpc's
# BenchmarkPrefetchEpochs runs one epoch-boundary workload against two
# in-process servers, one crossing plain boundaries and one pushing each
# epoch's schedule ahead of its accesses (BeginEpochPlan). It FAILS on a
# request error or an unbalanced prefetch-outcome ledger in either run. It
# also FAILS unless warm-epoch cold misses drop >= 10x, the prefetch in-time
# ratio reaches 0.9, and the planned run's first epoch has cold misses and
# its last at most a fifth of them. Gates `make all` so the planner cannot
# rot.
prefetch-smoke:
	$(GO) test -run NONE -bench 'PrefetchEpochs' -benchtime 1x ./internal/rpc/

# Regenerate the full evaluation at paper scale (~4 minutes).
experiments:
	$(GO) run ./cmd/icache-bench -exp all

experiments-quick:
	$(GO) run ./cmd/icache-bench -exp all -quick

# The quick evaluation pinned: every figure and table of `icache-bench -exp
# all -quick`, less the per-experiment wall-time lines, must match the golden
# byte for byte (≈140 s on 2 cores; in `make all`, not in `go test ./...`).
# A change that moves a figure on purpose regenerates the golden with
# `make experiments-golden` and says in CHANGES.md which lines moved and why.
EXP_GOLDEN := internal/experiments/testdata/quick.golden
EXP_QUICK = out=$$($(GO) run ./cmd/icache-bench -exp all -quick) || exit 1; \
	printf '%s\n' "$$out" | grep -v ' wall time)$$'

experiments-check:
	@$(EXP_QUICK) | diff -u $(EXP_GOLDEN) - && echo "experiments-check: the quick run matches $(EXP_GOLDEN)"

experiments-golden:
	@mkdir -p $(dir $(EXP_GOLDEN)); $(EXP_QUICK) > $(EXP_GOLDEN)

# Short fuzz passes over the wire-facing decoders (with exploration).
fuzz:
	$(GO) test -fuzz FuzzServeFrame -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzServerDispatch -fuzztime 30s ./internal/rpc/
	$(GO) test -fuzz FuzzDirDispatch -fuzztime 30s ./internal/dkv/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzReader -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzVec -fuzztime 15s ./internal/wire/

# Seed-corpus-only fuzz pass: runs every fuzz target's checked-in seeds as
# plain tests (no exploration), fast enough to gate `make all` on. All three
# frame-handler targets enter through transport.Server.ServeFrame: the mux
# and envelope layer over a stub protocol, the cache service (including the
# batched-peer-read, mux envelope, and stray directory-replica opcodes, with
# served GetBatch bytes held against the flat reference encoding) and the
# directory service (including the membership and multi-lookup opcodes, and
# the retired ones it must refuse, muxed and enveloped); then the wire
# framing.
fuzz-short:
	$(GO) test -run 'FuzzServeFrame' -count=1 ./internal/transport/
	$(GO) test -run 'FuzzServerDispatch' -count=1 ./internal/rpc/
	$(GO) test -run 'FuzzDirDispatch' -count=1 ./internal/dkv/
	$(GO) test -run 'FuzzReadFrame|FuzzReader|FuzzVec' -count=1 ./internal/wire/

# Non-test Go line counts: the "net lines trend negative" number the ROADMAP
# gates and CHANGES.md entries cite. Comments and blank lines count. The last
# line is the _test.go total, so a reduction made by moving code into test
# files shows on the same target.
loc:
	@for p in internal/icache internal/rpc internal/dkv internal/wire internal/transport internal/dataset internal/obs internal/trace internal/train internal/cache internal/experiments; do \
		echo "$$p $$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l)"; \
	done
	@echo "total $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*') | wc -l)"
	@echo "_test.go $$(cat $$(find . -name '*_test.go' ! -path './.bench_build/*') | wc -l)"

clean:
	$(GO) clean -testcache
