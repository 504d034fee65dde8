GO ?= go
FUZZTIME ?= 30s

.PHONY: ci vet fmt lint vuln docs-check build test benchmark-test benchmark-smoke flake shuffle race bench bench-smoke bench-sweep-7 alloc-gate soak chaos chaos-partition chaos-partition-smoke fuzz-smoke crash overload-smoke explore-smoke explore cover

# The full gate: what must pass before merging.
ci: vet fmt lint vuln docs-check build test benchmark-test benchmark-smoke shuffle race bench-smoke alloc-gate fuzz-smoke crash chaos-partition-smoke overload-smoke explore-smoke

# benchmark/ is a module of its own, so the root `go vet ./...` never
# sees it — and it is the one consumer of the internal id-form API
# (StepReadID, StripeOfID, ApplyTxnIDs, ...) outside this module.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# gofmt as a gate: fail (and show the files) if anything is unformatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck/govulncheck when the binaries are on PATH; skipped (with a
# note) where they are not installed, so the gate degrades instead of
# forcing a network install on hermetic CI containers.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vuln: govulncheck not installed, skipping"; fi

# Every code-formatted `make <target>`, cmd/<name>, internal/<pkg> and
# bench/<file> in README, DESIGN, EXPERIMENTS and the verify skill must
# exist in this tree: a deletion that leaves a stale mention fails here,
# naming file and line.
docs-check:
	$(GO) test -run '^TestDocsNameWhatExists$$' .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own (BENCHMARK.json's cost-ledger rig),
# so `go test ./...` above skips it. Its tests are also the guard that
# txn.Spec, txn.Result, txn.Runtime and sched.Scheduler stay
# source-compatible with it (~1 s).
benchmark-test:
	cd benchmark && $(GO) test ./...

# The rig end to end on every workload with its output checks on (~7 s):
# commits + failures = offered, bank balance, recovery equals the live
# store. Builds into .bench_build/, which .gitignore covers.
benchmark-smoke:
	bash benchmark/run.sh -quick

# Flake hunt: the concurrency-heavy suites ten times over. Not part of
# ci (minutes); run it before trusting a change to the runtime, the
# adapters or a baseline scheduler.
flake:
	$(GO) test -count=10 ./internal/sim ./internal/txn ./internal/sched ./internal/interval \
		./internal/history ./internal/dmt ./internal/tsto ./internal/sgt ./internal/nested \
		./internal/engine

# The suite again in random test order: catches inter-test state leaks
# (shared package-level state, test-order-dependent fixtures).
shuffle:
	$(GO) test -shuffle=on ./...

# The concurrency-sensitive packages under the race detector: the
# striped scheduler hot path (the striped engine, latch table, striped
# adapters, sharded store), the fault injector and the DMT(k) degraded-mode machinery
# (crash/recovery racing allocations and counter sync), plus the
# runtime, the group-commit log writer and the harness that drive them.
race:
	$(GO) test -race ./internal/core/... ./internal/engine/... ./internal/sched/... ./internal/storage/... ./internal/lock/... ./internal/dmt/... ./internal/fault/... ./internal/txn/... ./internal/wal/... ./internal/sim/... ./internal/admit/... ./internal/explore/...

bench:
	$(GO) test -bench=. -benchmem -benchtime=20x ./...

# Every benchmark for exactly one iteration: benchmarks are build- and
# run-checked in CI so they cannot silently rot, without paying for a
# real measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Allocation regression gate (EXPERIMENTS.md E29): runs the hot-path
# benchmarks with -benchmem and checks allocs/op against the budgets in
# bench/alloc_budget.json. The steady-state engine/adapter benches are
# budgeted at exactly 0 allocs/op; the whole-run cells get headroom for
# setup noise; BenchmarkRuntimeExec holds txn.Runtime.ExecCtx to 0 on
# MT(7)/striped (which a serial run never aborts) and composite to what
# its sub-engines allocate.
# A budget pattern matching no benchmark also fails, so a renamed
# benchmark cannot silently escape its gate.
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkStripedScheduler/(free-store|steady)|BenchmarkDurableCommit/volatile|BenchmarkRuntimeExec' \
		-benchmem -benchtime 100x . | $(GO) run ./cmd/allocgate -budget bench/alloc_budget.json

# Bounded state under unbounded uptime: 10^7 fresh-id transactions
# through txn.Runtime on MT(7)/striped; BenchmarkSoak fails when the heap
# that survives a GC grows more than 10 % between its first and last of
# 10 checkpoints, and reports retained-B (several minutes; not in ci).
soak:
	$(GO) test -run '^$$' -bench '^BenchmarkSoak$$' -benchtime 10000000x -timeout 60m .

# A quick chaos smoke run: DMT(k) under crash + drift + message loss.
chaos:
	$(GO) run ./cmd/mtsim -chaos chaos -sites 4 -txns 2000 -workers 8 -k 3

# The partition-tolerance A/B matrix (EXPERIMENTS.md E26): fail-fast vs
# degraded parked commits across partition plans and crash variants,
# volatile and sidecar-backed counters. Each line reruns the identical
# seeded schedule under both policies and prints the availability delta.
chaos-partition:
	$(GO) run ./cmd/mtsim -partition partition -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-crash -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 2000 -seed 1 -sitewal
	$(GO) run ./cmd/mtsim -partition partition-asym -sites 4 -txns 2000 -seed 2

# One seed of the matrix for the CI gate (the full matrix is a local /
# nightly target).
chaos-partition-smoke:
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 1000 -seed 1

# One quick overload A/B for the CI gate: exercises shedding, deadline
# accounting and the retention math end-to-end from the CLI. The
# measured curve (2000 txns, median-of-3) is bench-sweep-7 / E27.
overload-smoke:
	$(GO) run ./cmd/mtsim -sched mt -overload 1,10 -txns 800 -items 32 \
		-readfrac 0.5 -hotitems 4 -hotfrac 0.9 -workers 4

# The overload sweep behind bench/BENCH_7.json (EXPERIMENTS.md E27):
# goodput at 1x/4x/10x offered load per scheduler variant, admission
# control on vs off, median of 3 runs per point.
bench-sweep-7:
	$(GO) run ./cmd/mtsim -sched mt,mtdefer,composite,dmt -overload 1,4,10 \
		-txns 2000 -items 32 -readfrac 0.5 -hotitems 4 -hotfrac 0.9 \
		-workers 4 -repeats 3 -csv bench/bench_7.csv -json bench/BENCH_7.json

# Run every fuzz target for FUZZTIME each (Go runs one -fuzz target per
# invocation, hence the loop). Seed corpora alone run in `test`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseLog -fuzztime=$(FUZZTIME) ./internal/oplog/
	$(GO) test -fuzz=FuzzParseLogWAL -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz=FuzzReplayTrace -fuzztime=$(FUZZTIME) ./internal/explore/

# Controlled-concurrency schedule exploration (internal/explore, see
# DESIGN.md §13 / EXPERIMENTS.md E28). The smoke leg runs the full test
# file: PCT campaigns over every scheduler family, exhaustive DFS on the
# 2x2 workloads (with the C(8,4)=70 bound check), the seeded-bug search
# acceptance tests, and the checked-in trace regressions.
explore-smoke:
	$(GO) test ./internal/explore -run TestExplore -explore.budget=40 -timeout 600s

# A deeper local search: more PCT executions per (family, workload).
explore:
	$(GO) test ./internal/explore -run TestExplore -explore.budget=500 -timeout 1800s -v

# Per-package coverage report (the numbers quoted in EXPERIMENTS.md E28).
cover:
	$(GO) test -cover ./internal/... | sort
	@$(GO) test -coverprofile=/tmp/repro-cover.out ./internal/... >/dev/null && \
		$(GO) tool cover -func=/tmp/repro-cover.out | tail -1

# The full crash matrix from the CLI: one run per filesystem sync
# boundary, verifying recovery, durability acks and counter watermarks.
crash:
	$(GO) run ./cmd/mtsim -sched mtdefer -txns 60 -items 8 -crashpoint -1 -checkpoint-every 16
