#!/bin/sh
# Runs the crypto and runtime kernel benchmarks and emits a
# machine-readable BENCH_kernels.json so the performance trajectory is
# tracked from PR to PR. Run from anywhere inside the repository.
#
#   scripts/bench.sh           kernel benchmarks -> BENCH_kernels.json
#   scripts/bench.sh ingest    streaming-ingest population sweep
#                              -> BENCH_ingest.json (see below)
#
# Environment knobs:
#   ARBORETUM_BENCH_TIME   go test -benchtime value (default 1s; 1x for smoke)
#   ARBORETUM_BENCH_COUNT  go test -count value (default 1)
#   ARBORETUM_BENCH_OUT    output path (default BENCH_kernels.json /
#                          BENCH_ingest.json per mode)
#   ARBORETUM_BENCH_PKGS   space-separated package list to benchmark
#   ARBORETUM_INGEST_SWEEP populations for the ingest sweep
#                          (default "10000 100000 1000000 10000000")
#
# Every kernel benchmark runs at -cpu 1, because the tracked numbers are the
# single-core kernel costs the cost model's rates are derived from (the
# worker-pool scaling story is measured separately; see README).
set -eu

cd "$(dirname "$0")/.."

# --- ingest mode: population sweep over the sharded streaming pipeline ---
#
# Each run drives BenchmarkIngest (internal/runtime) at one virtual
# population size and records per-op and per-device cost plus the pipeline's
# peak heap. Unlike the kernel benchmarks this runs at the machine's full
# GOMAXPROCS: the sweep's subject is the sharded fan-out and its flat memory,
# not a single-core kernel rate. ns/device and heap_peak_bytes staying flat
# as devices grow 1000× is the scaling evidence (docs/INGEST.md).
if [ "${1:-}" = "ingest" ]; then
    OUT="${ARBORETUM_BENCH_OUT:-BENCH_ingest.json}"
    SWEEP="${ARBORETUM_INGEST_SWEEP:-10000 100000 1000000 10000000}"
    TMP="$(mktemp)"
    trap 'rm -f "$TMP"' EXIT
    for n in $SWEEP; do
        echo "== BenchmarkIngest at $n devices"
        ARBORETUM_BENCH_DEVICES="$n" go test ./internal/runtime \
            -run '^$' -bench '^BenchmarkIngest$' -benchmem \
            -benchtime "${ARBORETUM_BENCH_TIME:-1x}" -timeout 60m \
            | tee -a "$TMP"
        printf 'devices: %s\n' "$n" >> "$TMP"
    done
    awk '
    BEGIN { print "["; first = 1 }
    /^Benchmark/ {
        ns = $3
        bytes = "null"; allocs = "null"
        nsdev = "null"; bdev = "null"; heap = "null"
        for (i = 3; i < NF; i++) {
            if ($(i + 1) == "B/op") bytes = $i
            if ($(i + 1) == "allocs/op") allocs = $i
            if ($(i + 1) == "ns/device") nsdev = $i
            if ($(i + 1) == "B/device") bdev = $i
            if ($(i + 1) == "heap-peak-bytes") heap = $i
        }
    }
    /^devices: / {
        if (!first) printf ",\n"
        first = 0
        printf "  {\"op\": \"Ingest\", \"devices\": %s, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s, \"ns_device\": %s, \"b_device\": %s, \"heap_peak_bytes\": %s}", $2, ns, bytes, allocs, nsdev, bdev, heap
    }
    END { print "\n]" }
    ' "$TMP" > "$OUT"
    echo "wrote $OUT ($(grep -c '"op"' "$OUT") sweep points)"
    exit 0
fi

BENCHTIME="${ARBORETUM_BENCH_TIME:-1s}"
COUNT="${ARBORETUM_BENCH_COUNT:-1}"
OUT="${ARBORETUM_BENCH_OUT:-BENCH_kernels.json}"
PKGS="${ARBORETUM_BENCH_PKGS:-./internal/bgv ./internal/ahe ./internal/runtime}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

for pkg in $PKGS; do
    echo "== go test $pkg -bench . -benchmem (-benchtime $BENCHTIME, -count $COUNT)"
    go test "$pkg" -run '^$' -bench . -benchmem \
        -benchtime "$BENCHTIME" -count "$COUNT" -cpu 1 | tee -a "$TMP"
done

# Convert `go test -bench` output into a JSON array of
# {pkg, op, iterations, ns_op, b_op, allocs_op} objects, one per benchmark
# line (repeated ops appear once per -count run). A /ring=<degree>x<primes>
# sub-benchmark tag (the RNS ring benchmarks) is lifted out of the op name
# into its own "ring" field, so rows at different ring parameters are
# distinguishable without string-parsing op names downstream.
awk '
BEGIN { print "["; first = 1 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    op = $1
    sub(/^Benchmark/, "", op)
    ring = "null"
    if (op ~ /\/ring=/) {
        ring = op
        sub(/^.*\/ring=/, "", ring)
        sub(/\/.*$/, "", ring)
        ring = "\"" ring "\""
        sub(/\/ring=[^\/]*/, "", op)
    }
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (bytes == "") bytes = "null"
    if (allocs == "") allocs = "null"
    if (!first) printf ",\n"
    first = 0
    printf "  {\"pkg\": \"%s\", \"op\": \"%s\", \"ring\": %s, \"iterations\": %s, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", pkg, op, ring, iters, ns, bytes, allocs
}
END { print "\n]" }
' "$TMP" > "$OUT"

echo "wrote $OUT ($(grep -c '"op"' "$OUT") benchmark entries)"
