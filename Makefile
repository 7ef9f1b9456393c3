# Make targets mirror the CI jobs (.github/workflows/ci.yml) so humans
# and CI run exactly the same commands.

GO ?= go

.PHONY: build test race fuzz bench bench-serving bench-load bench-load-router bench-smoke fmt fmt-check vet perfbench-check promcheck loc figures-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own Go module (it pins this one with a replace
# directive), so build, test and vet above never compile it. This target
# vets and tests it, so an engine API change cannot break the benchmark
# unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# loc prints the code-size measure the design-quality aim tracks:
# non-blank, non-comment Go lines, production code and tests counted
# separately, outside perfbench/ (its own module) and examples/.
LOC_FILES := find . -name '*.go' -not -path './perfbench/*' -not -path './examples/*'
LOC_COUNT := grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$$'
loc:
	@echo "production $$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | $(LOC_COUNT))"
	@echo "test       $$($(LOC_FILES) -name '*_test.go' -exec cat {} + | $(LOC_COUNT))"

# figures-check is the fixed-seed figure run: every figure at seed 1 and
# default trials, timing lines dropped, diffed byte for byte against
# internal/experiments/testdata/all.golden. TestFiguresGolden pins one
# trial; this pins the trial-order merge of several. The golden is the
# reduced scale, so DYNAGG_FULL_SCALE is cleared. The wall time it
# prints is advisory.
figures-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/exp" ./cmd/dynagg-experiments || exit 1; \
	start=$$(date +%s); \
	DYNAGG_FULL_SCALE= "$$dir/exp" -all -seed 1 | grep -v regenerated | \
		diff internal/experiments/testdata/all.golden - || exit 1; \
	echo "figures-check: -all at seed 1 matches all.golden; wall $$(( $$(date +%s) - start )) s (advisory)"

# fmt rewrites; fmt-check (CI) fails on any file gofmt would change.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# race exercises the parallel trial engine, the workload pools
# (environments on two goroutines drawing fresh tuples from one shared
# dataset), the estimator execution engine (concurrent drill-down walks
# sharing one session, local and remote), the fleet scheduler + control
# plane (32 readers of the task views and task-table writers racing the
# tick loop that steps each task's tracking service), the snapshot
# engine's concurrent-reader contract (32 sessions on one Iface), the sharded
# store's scatter-gather path (32 epoch-pinned sessions racing per-shard
# mutator goroutines and epoch publication), the HTTP serving layer
# (32 concurrent clients on one handler) and the multi-process router
# (concurrent scatter-gather serving racing fleet epoch handshakes and
# shard churn) under the race detector. TestFiguresGolden skips itself
# under -race: the plain test run already pins the eighteen figures, and
# instrumented they would take minutes.
race:
	$(GO) test -race ./internal/experiments/ ./internal/workload/ ./internal/estimator/ \
		./internal/tracking/ ./internal/fleet/ ./internal/hiddendb/ \
		./internal/router/ ./webiface/ ./internal/obs/ \
		./internal/metrics/promcheck/

# fuzz runs each native fuzz target for a bounded time, in its own
# package: the client's wire-answer walk (GET and batch) differential
# against encoding/json, the handler's query-string walk differential
# against net/url, the handler's pooled batch decode differential against
# a fresh scratch, and the estimator checkpoint loader and the fleet
# state file loader, which must refuse or survive any bytes. The
# committed seed corpora under each package's testdata/fuzz also run in
# every plain go test; `go test -fuzz` takes one target per run.
# Entries are package:target.
FUZZTIME ?= 10s
FUZZ_TARGETS := ./webiface/:FuzzParseWireResult ./webiface/:FuzzParseWireBatch \
	./webiface/:FuzzParseSearchParams ./webiface/:FuzzDecodeBatch ./internal/estimator/:FuzzLoad \
	./internal/fleet/:FuzzFleetState
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime $(FUZZTIME) "$${t%%:*}" || exit 1; \
	done

# promcheck scrapes the LIVE /v1/metrics of all three daemons' handlers
# (serve, fleet, router) and holds each document to the strict
# Prometheus text-format validator: HELP/TYPE pairing, label syntax,
# monotone cumulative buckets, le="+Inf" closure. Run uncached so the
# scrape re-executes on every CI invocation.
promcheck:
	$(GO) test -count=1 ./internal/metrics/ ./internal/metrics/promcheck/

# bench regenerates every figure and reports the headline metrics, then
# refreshes the machine-readable serving-benchmark record.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(MAKE) bench-serving

# bench-serving runs the serving-path benchmarks (prefix vs non-prefix
# snapshot answering, a ~20k-tuple prefix range, ApplyBatch at one
# tracking round's churn and at +50%/-25%, one tuple's Insert+Delete
# with and without a snapshot published between pairs, query-key encoding,
# concurrent sessions, the estimator executor's sequential-vs-concurrent
# drill-down issuance,
# sharded scatter-gather serving at shards=1/4/16 under mutation load,
# the fleet scheduler tick at tasks=1 vs tasks=8 on one shared remote,
# the bitmap AND kernel scalar-vs-unrolled pair and the HTTP handler's
# legacy-vs-fastpath pair) and emits machine-readable results to
# BENCH_serving.json; CI archives the file as an artifact, seeding the
# repo's perf trajectory.
SERVING_BENCH := BenchmarkSnapshotPrefixQuery|BenchmarkSnapshotPrefixWide|BenchmarkStoreApplyBatch|BenchmarkStoreInsertDelete|BenchmarkSnapshotNonPrefix|BenchmarkQueryKey|BenchmarkServingConcurrent|BenchmarkConcurrentSessions|BenchmarkEstimatorExec|BenchmarkFleetScheduler|BenchmarkBitmapAND|BenchmarkHandlerSearch
BENCHTIME ?= 1s
# BenchmarkServingConcurrent races a free-running mutator goroutine, so
# its per-op cost depends on wall-clock interleaving: time-based
# calibration sees the cheap cache-hit ops first, overshoots b.N by
# orders of magnitude, and the sub-benchmark then runs for minutes (past
# the go test timeout). A fixed iteration count keeps the run bounded
# and the numbers comparable across commits (same count CI ratios with).
CHURN_BENCHTIME ?= 2000x
# Steps are separate (not a pipe) so a benchmark failure fails the
# target instead of being masked by the converter's exit status.
bench-serving:
	$(GO) test -run '^$$' -bench '$(SERVING_BENCH)' -benchmem -benchtime $(BENCHTIME) \
		./internal/hiddendb/ ./internal/experiments/ ./internal/estimator/ ./internal/fleet/ ./webiface/ > BENCH_serving.out
	$(GO) test -run '^$$' -bench 'BenchmarkServingConcurrent' -benchmem -benchtime $(CHURN_BENCHTIME) \
		. >> BENCH_serving.out
	$(GO) run ./cmd/dynagg-benchjson -out BENCH_serving.json < BENCH_serving.out

# bench-load fires the ReqBench-style HTTP load harness at an in-process
# server: a cache-cold pass (every request a fresh query) and a
# cache-hot pass (Zipf-skewed repeats over a small universe), recording
# p50/p95/p99, throughput and error/429 rates plus the cold/hot p50
# ratio to BENCH_load.json. CI archives the file and logs the ratio as a
# soft fast-path signal. Tune with LOADGEN_FLAGS.
LOAD_DURATION ?= 5s
LOADGEN_FLAGS ?=
bench-load:
	$(GO) run ./cmd/dynagg-loadgen -selfserve -compare -duration $(LOAD_DURATION) \
		-warmup 1s -clients 16 -queries 64 -zipf 1.2 $(LOADGEN_FLAGS) -out BENCH_load.json

# bench-load-router measures the fan-out tax: the same workload against
# a single in-process server (BENCH_load_single.json) and against the
# full in-process fleet topology — ROUTER_SHARDS shard daemons behind a
# dynagg-router with the startup epoch handshake
# (BENCH_load_router.json). CI archives both and logs the router/single
# p50 ratio as a soft signal.
ROUTER_SHARDS ?= 4
bench-load-router:
	$(GO) run ./cmd/dynagg-loadgen -selfserve -duration $(LOAD_DURATION) \
		-warmup 1s -clients 16 -queries 64 -zipf 1.2 $(LOADGEN_FLAGS) -out BENCH_load_single.json
	$(GO) run ./cmd/dynagg-loadgen -selfserve-router $(ROUTER_SHARDS) -duration $(LOAD_DURATION) \
		-warmup 1s -clients 16 -queries 64 -zipf 1.2 $(LOADGEN_FLAGS) -out BENCH_load_router.json

# bench-smoke runs every benchmark exactly once so bench_test.go cannot
# silently rot (no timing value, compile+run coverage only).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

ci: build test vet perfbench-check fmt-check loc promcheck figures-check race fuzz bench-smoke
