# Convenience targets for the iCache reproduction. Everything is plain
# stdlib Go; the Makefile only wraps the commands the README documents.

GO ?= go

.PHONY: all build vet lint test test-short test-race chaos benchmark benchmark-pairs benchmark-test bench bench-layers loadgen-smoke obs-smoke overload-smoke prefetch-smoke experiments experiments-quick fuzz fuzz-short loc clean

all: build lint test test-race chaos fuzz-short obs-smoke overload-smoke loadgen-smoke prefetch-smoke benchmark-test

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
# (no shipped binary has a spill tier). Subsumes `vet` in `make all`.
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
	@stray=$$(for f in internal/icache/distributed.go internal/icache/lifecycle.go internal/rpc/lifecycle.go; do \
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
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (the chaos tests double as lock
# coverage for every networked component, and the concurrent-clients
# suites in internal/rpc exercise the sharded store / singleflight /
# prefetch-pool interleavings).
test-race:
	$(GO) test -race ./...

# Chaos suites only, three times with rotating seeds: -count defeats the
# test cache, and the suites' internal seed tables ([1, 42, 1337], the
# trial indices, and the injector seeds) cover distinct schedules per run.
# internal/dkv carries the partitioned-directory half: three real replica
# processes over TCP with one killed mid-epoch.
chaos:
	$(GO) test -count=3 -run 'Chaos' ./internal/icache/ ./internal/rpc/ ./internal/dkv/
	$(GO) test -count=3 -race -run 'Chaos' ./internal/icache/ ./internal/rpc/ ./internal/dkv/

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
# from 1 and 64 concurrent claimers), the loadgen saturation /
# overload / clairvoyant runs, and BenchmarkShortSleep (what the repository
# benchmark's 500 us backend sleep costs in an idle and in a busy process). Nothing is archived or compared: the benchmarks that gate
# anything carry their own b.Fatalf (BenchmarkLoadgenOverload: storm goodput
# >= 80% of the knee; BenchmarkPrefetchEpochs: see prefetch-smoke), and
# commit-to-commit comparison is `make benchmark-pairs`.
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

# Sub-second self-contained clairvoyant smoke (boots an in-process planning
# server, pushes each epoch's schedule ahead of its accesses, asserts later
# epochs run nearly cold-miss-free and the prefetch-outcome ledger stays
# exactly conserved), then the clairvoyant gate, once: the same epoch-boundary
# workload runs reactive and with the planner as -clairvoyant installs it, and
# BenchmarkPrefetchEpochs FAILS unless warm-epoch cold misses drop >= 10x and
# the prefetch in-time ratio reaches 0.9. Gates `make all` so the planner
# cannot rot.
prefetch-smoke:
	$(GO) run ./cmd/icache-loadgen -prefetch-smoke
	$(GO) test -run NONE -bench 'PrefetchEpochs' -benchtime 1x ./internal/loadgen/

# Regenerate the full evaluation at paper scale (~4 minutes).
experiments:
	$(GO) run ./cmd/icache-bench -exp all

experiments-quick:
	$(GO) run ./cmd/icache-bench -exp all -quick

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
# directory service (including the membership, multi-lookup,
# ring-view-exchange and shard hand-off opcodes, muxed and enveloped); then
# the wire framing.
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
	@for p in internal/icache internal/rpc internal/dkv internal/wire internal/transport internal/dataset internal/obs internal/trace; do \
		echo "$$p $$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l)"; \
	done
	@echo "total $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*') | wc -l)"
	@echo "_test.go $$(cat $$(find . -name '*_test.go' ! -path './.bench_build/*') | wc -l)"

clean:
	$(GO) clean -testcache
