# Developer entry points. CI runs the same commands.

.PHONY: build test race bench-ml bench-serve bench-ingest bench-compare cluster-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench-ml measures the tree-learner split engine (micro fits at
# n ∈ {200, 2000, 20000} plus the paper-level RF/XGB/grid-search
# benchmarks) and emits BENCH_ml.json. Override the budget with
# BENCHTIME, e.g. `make bench-ml BENCHTIME=2s`.
BENCHTIME ?= 1s
bench-ml:
	BENCHTIME=$(BENCHTIME) ./scripts/bench_ml.sh BENCH_ml.json

# bench-serve measures the hot forecast-serving path (server mux,
# router single-owner fast path, raw cached-bytes lookup) and emits
# BENCH_serve.json. The cached-bytes row pins 0 allocs/op.
bench-serve:
	BENCHTIME=$(BENCHTIME) ./scripts/bench_serve.sh BENCH_serve.json

# bench-ingest measures the two telemetry ingest doors (JSON HTTP and
# binary HTTP) at the canonical 100-report batch. The binary
# row must hold ≥5x the JSON row's reports/s and ≤1 alloc/report. It
# writes a fresh run record to bench-ingest-run.json; the committed
# BENCH_ingest.json is a curated [before, after] array of such records
# — append to it rather than overwriting.
bench-ingest:
	BENCHTIME=$(BENCHTIME) ./scripts/bench_ingest.sh bench-ingest-run.json

# bench-compare diffs the latest two run records of each committed
# BENCH_*.json (the curated before/after pair of the most recent
# measurement) as a per-benchmark ratio table, and exits nonzero if a
# named hot benchmark regressed by more than 10%. CI runs it as a
# non-blocking report; run it locally after appending a new record to
# catch accidental slowdowns on the guarded paths.
BENCH_HOT ?= BenchmarkGBMFit,BenchmarkForestFit,BenchmarkTreeFit
bench-compare:
	go run ./cmd/benchcompare -hot '$(BENCH_HOT)' BENCH_ml.json BENCH_serve.json BENCH_ingest.json

# cluster-smoke spins up 3 shard fleetservers (each with its own WAL
# and snapshot spill) + a router that partitions telemetry to ring
# owners, SIGKILLs a shard mid-replay, and asserts the recovered
# cluster's merged fleet forecasts are byte-identical to a single
# unsharded process with zero acknowledged reports lost, and that raw
# telemetry storage partitions ~1/N across disjoint per-shard stores.
cluster-smoke:
	./scripts/cluster_smoke.sh
