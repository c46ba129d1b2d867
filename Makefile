# Tier-1 flow: `make check` is what CI runs — build everything, run the full
# test suite, then run the internal packages under the race detector (the
# sharded parallel engine executes shards on concurrent goroutines, so -race
# guards its worker pool, merge and result-collection paths).

GO ?= go

.PHONY: all build vet perfbench-vet test race fuzz fuzz-smoke chaos advisor-chaos bench bench-compare obs-check transport-check advisor-check metrics-check scale-check check ci

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench is a nested module, so `go build ./...` and `go vet ./...` never
# compile it; vetting it here catches exported API it uses going away.
perfbench-vet:
	$(GO) -C perfbench vet ./...

test:
	$(GO) test ./...

# The race detector multiplies runtime; -count=1 defeats the test cache so
# the instrumented binaries actually run. The race surface is the sharded
# engine (simnet worker pool + merge), the survey plumbing that streams shard
# merges into writers, core's survey-dataset check, which runs a sharded
# survey, and netmodel, whose Population (the per-/24 table included) every
# shard's model reads without locks.
race:
	$(GO) test -race -count=1 ./internal/simnet ./internal/core ./internal/survey ./internal/netmodel

# Short fuzz pass over the merge-ordering contract (FuzzShardMerge), the
# timing wheel's dequeue order against a heap oracle (FuzzWheelVsHeap), the
# dataset readers (FuzzOpenSource strict+lenient over all three formats,
# FuzzCompactReader on the varint decoder), checkpoint round trips
# (FuzzCheckpointRoundTrip), the permutation's order and Seek resumption
# (FuzzPermutation), the matcher and advisor store against the pre-kernel
# matcher, emission-order check included (FuzzAttribution), and the 8-byte
# Internet checksum kernel against the 16-bit loop (FuzzChecksum); seeds
# alone run in `make test`.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzShardMerge -fuzztime=30s ./internal/simnet
	$(GO) test -run=Fuzz -fuzz=FuzzWheelVsHeap -fuzztime=30s ./internal/simnet
	$(GO) test -run=Fuzz -fuzz=FuzzOpenSource -fuzztime=30s ./internal/survey
	$(GO) test -run=Fuzz -fuzz=FuzzCompactReader -fuzztime=30s ./internal/survey
	$(GO) test -run=Fuzz -fuzz=FuzzCheckpointRoundTrip -fuzztime=30s ./internal/advisor
	$(GO) test -run=Fuzz -fuzz=FuzzPermutation -fuzztime=30s ./internal/zmapper
	$(GO) test -run=Fuzz -fuzz=FuzzAttribution -fuzztime=30s ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzChecksum -fuzztime=30s ./internal/wire

# Faster fuzz smoke for CI: same targets, 10 s each.
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzShardMerge -fuzztime=10s ./internal/simnet
	$(GO) test -run=Fuzz -fuzz=FuzzWheelVsHeap -fuzztime=10s ./internal/simnet
	$(GO) test -run=Fuzz -fuzz=FuzzOpenSource -fuzztime=10s ./internal/survey
	$(GO) test -run=Fuzz -fuzz=FuzzCompactReader -fuzztime=10s ./internal/survey
	$(GO) test -run=Fuzz -fuzz=FuzzCheckpointRoundTrip -fuzztime=10s ./internal/advisor
	$(GO) test -run=Fuzz -fuzz=FuzzPermutation -fuzztime=10s ./internal/zmapper
	$(GO) test -run=Fuzz -fuzz=FuzzAttribution -fuzztime=10s ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzChecksum -fuzztime=10s ./internal/wire

# The chaos suite: every fault-injection test (TestChaos*) under the race
# detector — fault-off byte-identity, fixed-seed fault determinism,
# sequential/sharded fault equivalence, shard-panic recovery, and lenient
# reads of corrupted datasets.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/simnet ./internal/survey ./internal/zmapper ./internal/scamper

# The advisord kill/restore chaos suite, raced: an exhaustive kill-point sweep
# over the checkpoint write path (every durable step — temp create, chunked
# writes, sync, rename, dir sync, GC — killed once), seeded random kill
# schedules across multi-phase ingest/restart chains with concurrent readers,
# and corrupt-stream ingest equivalence. The invariant throughout: a recovered
# store equals some previously published epoch, byte for byte — never torn,
# never fabricated.
advisor-chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/advisor

# `make bench` runs the full benchmark suite and stores a machine-readable
# snapshot as BENCH_<date>.json next to the human-readable output, so perf
# trajectories can be diffed across commits (format: README "Benchmark
# trajectory"). benchjson -summary prints the one-line-per-benchmark digest
# (name, ns/op, ops/sec) to the console. A snapshot is never overwritten: a
# later run on the same day writes BENCH_<date>.run<NN>.json, the first
# such name that is free and sorts after every BENCH_<date>*.json already
# there, so BENCH_BASELINE below picks it up.
bench:
	@set -e; day=BENCH_$$(date +%Y-%m-%d); out=$$day.json; n=1; \
	while [ -e "$$out" ] || [ "$$(printf '%s\n' $$day*.json "$$out" | LC_ALL=C sort | tail -n 1)" != "$$out" ]; do \
		n=$$((n + 1)); if [ $$n -gt 99 ]; then echo "bench: no free snapshot name for $$day" >&2; exit 2; fi; \
		out=$$day.run$$(printf '%02d' $$n).json; \
	done; \
	echo "bench: writing $$out" >&2; \
	$(GO) test -bench=. -benchmem ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson -summary > "$$out"

# The benchmark-regression gate: a bench run compared against the newest
# checked-in BENCH_*.json, failing (exit 1) when any benchmark's ns/op grew
# by more than 10%. The -benchtime is time-based, not a fixed iteration
# count: at 10 iterations a sub-microsecond benchmark measures mostly
# harness overhead and reads as a phantom 10-50× regression against the
# full-benchtime baseline, while the default 1s gives fast paths millions of
# iterations and runs the multi-second table/figure benchmarks once or
# twice. Override the baseline with BENCH_BASELINE=path, the regression
# threshold with BENCH_THRESHOLD=pct (shared or throttled machines drift
# well past the default 10%), the benchmarks run with BENCH=regexp
# (default: all) and the -benchtime with BENCH_TIME.
#
# A baseline file was measured on another day, and host drift alone can
# move unchanged code past the gate. BENCH_BASE_REF=<ref> measures the
# base alongside the working tree instead: <ref>'s committed files are
# exported (git archive, so nothing is left in .git if the run is killed)
# into a temporary directory, both sides' test binaries are built once for
# every package that has benchmarks, and the binaries then run BENCH_ROUNDS
# (default 10) alternating rounds, the base first in odd rounds, with the
# same BENCH and BENCH_TIME, each from its own package directory. Every
# benchmark line is echoed with its side and round; benchjson -compare
# gates the medians of the rounds. The defaults are what resolves the 10%
# gate on a 2-vCPU guest: at 5 rounds × 100ms the base's own rounds spread
# wider than 10%, so the gate flagged unchanged code. For example:
#
#   make bench-compare BENCH_BASE_REF=HEAD~1 BENCH='^BenchmarkAnalyze$$'
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_THRESHOLD ?= 10
BENCH ?= .
BENCH_TIME ?= 1s
BENCH_ROUNDS ?= 10
bench-compare:
ifdef BENCH_BASE_REF
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/base/src" "$$tmp/base/bin" "$$tmp/new/bin"; \
	git archive "$(BENCH_BASE_REF)" | tar -x -C "$$tmp/base/src"; \
	pkgs=$$($(GO) list -f '{{.Dir}}' ./... | sed 's|^$(CURDIR)|.|' | \
		while read -r d; do if grep -qs '^func Benchmark' "$$d"/*_test.go; then echo "$$d"; fi; done); \
	for d in $$pkgs; do \
		bin=$$(echo "$$d" | tr ./ __).test; \
		$(GO) test -c -o "$$tmp/new/bin/$$bin" "$$d"; \
		if [ -d "$$tmp/base/src/$$d" ]; then (cd "$$tmp/base/src" && $(GO) test -c -o "$$tmp/base/bin/$$bin" "$$d"); fi; \
	done; \
	for r in $$(seq $(BENCH_ROUNDS)); do \
		order="base new"; if [ $$((r % 2)) -eq 0 ]; then order="new base"; fi; \
		for side in $$order; do \
			src=$(CURDIR); if [ $$side = base ]; then src="$$tmp/base/src"; fi; \
			for d in $$pkgs; do \
				bin="$$tmp/$$side/bin/$$(echo "$$d" | tr ./ __).test"; \
				if [ ! -x "$$bin" ]; then continue; fi; \
				(cd "$$src/$$d" && "$$bin" -test.run '^$$' -test.bench '$(BENCH)' -test.benchtime $(BENCH_TIME) -test.benchmem -test.timeout 60m) > "$$tmp/run.txt"; \
				cat "$$tmp/run.txt" >> "$$tmp/$$side.txt"; \
				sed -n "s/^Benchmark/$$side round $$r: &/p" "$$tmp/run.txt"; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson < "$$tmp/base.txt" > "$$tmp/base.json"; \
	$(GO) run ./cmd/benchjson < "$$tmp/new.txt" > "$$tmp/new.json"; \
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) "$$tmp/base.json" "$$tmp/new.json"
else
	@test -n "$(BENCH_BASELINE)" || { echo "bench-compare: no BENCH_*.json baseline found"; exit 2; }
	$(GO) test -bench='$(BENCH)' -benchmem -benchtime=$(BENCH_TIME) ./... | $(GO) run ./cmd/benchjson > /tmp/bench_current.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) /tmp/bench_current.json
endif

# The transport boundary suite, raced: SimTransport's delivery tagging,
# closed-endpoint contract and zero-alloc pin on the send → network →
# fabric → handler path, and the golden test pinning the probers' outputs
# through SimTransport on the 96-block population (3 seeds × -parallel 1,
# 4 and 8), whose shards run on concurrent goroutines.
transport-check:
	$(GO) test -race -count=1 ./internal/transport
	$(GO) test -race -count=1 -run 'TestTransportDifferentialIdentity' ./internal/experiments

# The observability determinism suite: vet, the obs package's unit tests
# (merge commutativity, snapshot round-trip, paper-threshold histograms),
# and the equivalence tests asserting fixed-seed metric snapshots and
# manifests are byte-identical across -parallel 1 and -parallel 8, and that
# probe-side histograms agree with analysis-side tail fractions.
obs-check:
	$(GO) vet ./internal/obs ./cmd/benchjson
	$(GO) test -count=1 ./internal/obs
	$(GO) test -count=1 -run 'TestObs|TestRenderReportGolden' ./internal/experiments ./internal/core

# The advice-serving suite, raced: the epoch-swap consistency hammer (many
# readers on Lookup and the HTTP handler while a writer publishes epochs),
# the ingest attribution rules, the zero-alloc pin on the lock-free read
# path (TTL paths included), checkpoint encode/decode and recovery, the
# supervised ingest loop, overload shedding and graceful drain, plus the
# advisord binary end-to-end lifecycle test.
# The ingest-loop tests then run ten more times under -race. The loop itself
# runs on one goroutine, but other goroutines reach it while it runs: a
# cancel arrives from another goroutine mid-Read, /healthz reads the loop's
# progress, and lookups read each snapshot it publishes
# (TestRunIngestProgressUnderPolling polls both), and a single pass can miss
# the interleaving that shows a race. So does the aliasing test: readers
# hold a snapshot whose prefix slice the store shared while the writer keeps
# adding prefixes and publishing.
advisor-check:
	$(GO) test -race -count=1 ./internal/advisor ./cmd/advisord
	$(GO) test -race -count=10 -run 'TestRunIngest|TestSnapshotAliasing' ./internal/advisor

# The telemetry-plane suite, raced (scrapes race live publishes and the
# watchdog ticker): golden-file Prometheus text exposition and its format
# invariants, the debug-server /metrics endpoint, serve-path instrumentation
# (route × status-class histograms, zero-alloc pin), scrape-under-publish-load,
# watchdog quantiles/breach counting, access-log sampling, and the regression
# test proving serve traffic and diagnostic metrics cannot perturb the
# deterministic snapshot bytes.
metrics-check:
	$(GO) test -race -count=1 -run 'TestProm|TestRuntimeCollector|TestHistogramQuantile|TestDebugServer|TestEscapeLabel|TestFormatValue|TestStatusClass|TestServeMetrics|TestServeInstrumented|TestHealthzIngest|TestMetricsScrape|TestWatchdog|TestAccessLogger|TestOutcomeOf|TestServeTraffic' ./internal/obs ./internal/advisor
	$(GO) test -count=1 -run 'TestAdvisordMetricsAndAccessLog' ./cmd/advisord

# The bounded-memory smoke test: the rank-indexed prober, scanner and model
# state at internet-demonstration scale — a 2^24-address scan and a
# 4M-address survey — must finish with peak heap under the budget pinned in
# scale_test.go (64 MB; per-address maps, since deleted, needed ~1.6 GB for
# the scan), and zmapscan's report of perfbench's 2^22-address scan under
# 48 MB (keeping every response and a first-response map needed 83 MB).
# -count=1 because a cached pass never exercised the allocator.
scale-check:
	SCALE_CHECK=1 $(GO) test -count=1 -run 'TestScaleCheck' -v .

check: build test race

# The CI pipeline: build, vet (the nested perfbench module too), full
# tests, race pass on the concurrent packages, the fault-injection suite
# under -race, the advisord kill/restore chaos suite, the observability
# determinism suite, the transport suite (zero-alloc pin + differential,
# raced), the advice-serving suite (epoch-swap hammer +
# serve/drain/ingest robustness, raced), the telemetry-plane suite
# (exposition golden + scrape races + zero-alloc pin, raced), the
# bounded-memory scale smoke, then a short fuzz smoke of every fuzz target.
ci: build vet perfbench-vet test race chaos advisor-chaos obs-check transport-check advisor-check metrics-check scale-check fuzz-smoke
