# Developer entry points. `make ci` is exactly what the GitHub Actions
# workflow runs; keep the two in sync.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: all vet build test race lint lint-fixtures fuzz-smoke bench-smoke bench-update pareto-smoke serve-smoke serve-load-smoke serve-shard-smoke engine-diff engine-diff-parallel e2ebench-check ci clean

all: build

vet:
	$(GO) vet ./...

# Static-analysis gate: the domain-specific mialint suite (all seven
# analyzers — see internal/lint and the README table), go vet, and a gofmt
# cleanliness check. staticcheck joins in when it is on PATH; the container
# image does not ship it, so its absence is not a failure. bin/mialint is a
# real file target so repeated `make lint` reuses the built analyzer when
# its sources have not changed; CI caches it on the same source hash.
# MIALINT_FLAGS feeds extra flags (CI passes -gha for inline annotations).
MIALINT_SRCS := $(shell find cmd/mialint internal/lint -name '*.go' -not -path '*/testdata/*')

bin/mialint: $(MIALINT_SRCS) go.mod
	$(GO) build -o $@ ./cmd/mialint

lint: bin/mialint vet
	./bin/mialint $(MIALINT_FLAGS) ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
	  echo "gofmt -l flagged:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	  else echo "staticcheck not on PATH; skipped"; fi

# The analyzers' own golden-fixture suites: every testdata module under
# internal/lint replayed against its `// want` expectations, plus the
# call-graph and CLI tests. The fast loop while writing an analyzer.
lint-fixtures:
	$(GO) test ./internal/lint/... ./cmd/mialint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One bounded fuzzing pass per target. Short by design: this is a smoke
# check that the harnesses still run and the seed corpora still pass, not a
# bug hunt. Override with e.g. `make fuzz-smoke FUZZTIME=5m` to dig.
fuzz-smoke:
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stg -run '^$$' -fuzz FuzzReadSTG -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeWire -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sched/incremental -run '^$$' -fuzz FuzzScheduleInvariants -fuzztime $(FUZZTIME)

# The packages whose benchmarks BENCH_baseline.json pins. bench-smoke and
# bench-update both run exactly this list: benchdiff -update writes only what
# it measured, so refreshing from a shorter list would silently drop pins.
BENCH_PKGS := ./internal/sched/incremental ./internal/engine \
	./internal/explore/pareto ./internal/wire ./internal/server

# Short benchmark pass compared against the committed baseline. Warn-only by
# design: shared runners are noisy, so regressions annotate the run instead
# of failing it (the allocation-free contracts are enforced for real by the
# AllocsPerRun guard tests under `make test`). Baseline entries the run did
# not measure warn as drift too, so a deleted or renamed benchmark shows up.
bench-smoke:
	$(GO) test $(BENCH_PKGS) \
	  -run '^$$' -bench . -benchmem -benchtime 100ms | $(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS)

# Refresh BENCH_baseline.json on a quiet machine. Afterwards, re-pin
# BenchmarkParallelKernel/n=4096/P=4 to 1 alloc/op: at the smoke benchtime
# that benchmark runs a single iteration, which can catch one runtime sudog
# allocation from channel parking (it amortizes to 0 at any longer
# benchtime; the analyzer's own 0-alloc contract is enforced by the
# AllocsPerRun guard tests, not by the warn-only smoke pass).
bench-update:
	$(GO) test $(BENCH_PKGS) \
	  -run '^$$' -bench . -benchmem -benchtime 1s | $(GO) run ./cmd/benchdiff -update

# Determinism gate for the multi-objective search (DESIGN §3.11): the smoke
# search's Pareto front must hash to the golden fingerprint pinned in
# pareto_test.go, and the cross-jobs/repeat-run byte-identity suite must
# hold under the race detector. An intentional change to the search (new
# mutation weights, different crowding tie-break, …) re-pins the golden by
# running the test once and copying the fingerprint from the failure.
pareto-smoke:
	$(GO) test -race ./internal/explore/pareto -run \
	  'TestSmokeGoldenFingerprint|TestByteIdenticalAcrossJobs|TestRepeatedSeededRunsIdentical' -v

# The tentpole's safety net, runnable on its own: the engine path (compile
# once, analyze through the façade — cold, warm, replay, both algorithms)
# must be bit-identical to the package-level Schedule entry points over the
# full differential corpus, and the rta screen must dominate the exact
# analysis. `make race` covers these too; this target is the fast loop while
# working on the image or a backend.
engine-diff:
	$(GO) test ./internal/engine -run \
	  'TestEngineBitIdentical|TestEditedReschedule|TestRTABoundDominates|TestParallelBitIdentical|TestMetamorphic' -v

# Parallel-kernel determinism under the race detector: corpus-wide
# bit-identity at Parallelism ∈ {1,2,4,8}, the metamorphic battery, and the
# kernel lifecycle tests (shared-image races, worker-leak, cancellation).
# CI runs this leg twice — GOMAXPROCS=1 and GOMAXPROCS=4 — because both the
# interleavings the race detector can observe and the partition scheduling
# differ; results must be bit-identical regardless.
engine-diff-parallel:
	$(GO) test -race ./internal/engine -run \
	  'TestParallelBitIdentical|TestMetamorphic|TestSharedImageConcurrentParallel|TestParallelKernelShutdownNoLeak|TestParallelCancellation' -v

# End-to-end smoke check for the analysis service: builds the real miaserve
# binary, boots it on an ephemeral port, round-trips analyze → reschedule
# over HTTP, then sends SIGINT and requires a clean drain (exit 0). Behind a
# build tag so `go test ./...` stays exec-free.
serve-smoke:
	$(GO) test -tags servesmoke -run TestServeSmoke -v ./cmd/miaserve

# Load-path smoke check: builds miaserve, boots it on an ephemeral port, and
# drives a short miaload run through every mode (wire analyze, unary
# reschedule, wire batch) under the race detector, then requires a clean
# SIGINT drain. Same build tag as serve-smoke so `go test ./...` stays
# exec-free.
serve-load-smoke:
	$(GO) test -race -tags servesmoke -run TestServeLoadSmoke -v ./cmd/miaload

# Sharded-tier smoke check: builds miaserve and miarouter (both with -race),
# boots three single-worker shards with a one-slot admission queue behind a
# router, and drives miaload through three regimes: steady-state batch
# traffic (zero errors), saturation (-saturate: overload must shed with 429
# and a bounded Retry-After in [1, 30] s), and a SIGINT drain of the whole
# fleet (exit 0 everywhere). Same build tag as serve-smoke so `go test
# ./...` stays exec-free.
serve-shard-smoke:
	$(GO) test -race -tags servesmoke -run TestServeShardSmoke -v ./cmd/miaload

# The end-to-end benchmark is a module of its own (e2ebench/go.mod replaces
# this module with ../), so `go build ./...` here never compiles it. Vet and
# short-test it so an API change it depends on fails CI, not the next
# benchmark run. GOPROXY=off: it has no dependencies to fetch.
e2ebench-check:
	cd e2ebench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test -short ./...

ci: lint build race fuzz-smoke bench-smoke pareto-smoke serve-smoke serve-load-smoke serve-shard-smoke e2ebench-check

clean:
	$(GO) clean ./...
	rm -f bin/mialint
