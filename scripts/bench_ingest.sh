#!/bin/sh
# Runs the telemetry-ingest benchmarks (the JSON and binary-HTTP doors
# at the canonical 100-report batch) and emits the results as
# JSON — the ingest counterpart of scripts/bench_serve.sh.
#
# Usage:  scripts/bench_ingest.sh [output.json]
#   BENCHTIME=2s scripts/bench_ingest.sh BENCH_ingest.json
#
# The output is one JSON run record; the committed BENCH_ingest.json
# keeps an array of such records (the first entry is the pre-binary
# baseline, so the JSON-vs-binary gap stays measured, not guessed).
# Each result row carries reports/sec alongside ns/op and allocs/op;
# allocs/report is allocs_per_op divided by the batch size in the name.
set -eu

OUT=${1:-BENCH_ingest.json}
BENCHTIME=${BENCHTIME:-1s}
PATTERN='^BenchmarkTelemetryIngest$'

NUM_CPU=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo null) | head -1)

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" ./internal/serve | tee "$TMP"

awk -v benchtime="$BENCHTIME" -v num_cpu="$NUM_CPU" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    # The -N suffix testing appends to every benchmark name IS the
    # GOMAXPROCS the run used; record it before stripping.
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    # (no suffix means the run used GOMAXPROCS=1 — testing omits -1)
    sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
    b = ""; allocs = ""; rps = ""
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op") b = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "reports/s") rps = $(i - 1)
    }
    if (n++) results = results ",\n"
    results = results sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"reports_per_sec\": %s}", name, iters, ns, b == "" ? "null" : b, allocs == "" ? "null" : allocs, rps == "" ? "null" : rps)
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"num_cpu\": %s,\n  \"gomaxprocs\": %s,\n  \"results\": [\n%s\n  ]\n}\n", benchtime, goos, goarch, cpu, num_cpu == "" ? "null" : num_cpu, gomaxprocs == "" ? (n ? "1" : "null") : gomaxprocs, results
}' "$TMP" > "$OUT"

echo "wrote $OUT"
