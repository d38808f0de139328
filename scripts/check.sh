#!/bin/sh
# Tier-1 verification: build, vet, tests, and the race detector over the
# parallel execution engine. Run from the repository root.
#
# The race pass takes a few minutes on small machines (the runtime package
# runs real Paillier/MPC under the detector); set ARBORETUM_CHECK_FAST=1 to
# skip it during quick iteration. Set ARBORETUM_CHECK_LINT=0 to skip the
# arblint invariant gate (docs/ANALYSIS.md) while iterating on code the
# analyzers are expected to flag.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

if [ "${ARBORETUM_CHECK_LINT:-1}" = "0" ]; then
    echo "== skipping arblint (ARBORETUM_CHECK_LINT=0)"
else
    echo "== go run ./tools/arblint ./..."
    go run ./tools/arblint ./...
fi

echo "== go test ./..."
go test ./...

# bench/ is a nested module (bench/go.mod, replace arboretum => ../), so
# ./... above never reaches it; it compiles against runtime.Config,
# runtime.Metrics, vsr and the service, so a root-module API change has to
# build and pass there too (~25 s, mostly its -smoke run of all four
# workloads).
echo "== go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

# Allocation-regression gates (docs/KERNELS.md): the kernel hot paths are
# pinned to their steady-state allocation counts, and the planner's scorer —
# run once per plan prefix the search visits — to zero. Runs inside
# `go test ./...` too; this named invocation bypasses the test cache so the
# gate always executes, and fails loudly on its own line when a hot path
# regresses.
echo "== alloc-regression gates"
go test ./internal/bgv ./internal/ahe ./internal/planner -run '^TestAllocGate' -count=1

# The planner's go test -bench handles (ROADMAP 1(c), the verify skill) are
# compiled by the passes above but run by none of them; one iteration each
# (under a second) so a handle that panics or rots fails here.
echo "== planner bench handles (-benchtime 1x)"
go test ./internal/planner -run '^$' -bench . -benchtime 1x

# Streaming-ingest memory-flatness smoke (docs/INGEST.md): peak heap at 10^6
# simulated devices must stay within 1.2x of the 10^5 run. Runs without the
# race detector (the test is !race-tagged: 10^6 instrumented Paillier folds
# would take minutes and measure the detector's shadow heap, not ours).
echo "== ingest memory-flatness smoke"
ARBORETUM_INGEST_SMOKE=1 go test ./internal/runtime -run '^TestIngestMemoryFlat$' -count=1

if [ "${ARBORETUM_CHECK_FAST:-0}" = "1" ]; then
    echo "== skipping go test -race ./... (ARBORETUM_CHECK_FAST=1)"
    # The fast path trades the race pass for the arboretumd end-to-end
    # smokes: the conformance pass (every docs/SERVICE.md endpoint, exact
    # budget debits) and the crash-recovery pass (SIGKILL mid-burst,
    # restart on the same ledger, every accepted job recovered with exact
    # accounting). The slow path already covers the service
    # packages under the race detector above.
    echo "== scripts/loadtest.sh -smoke"
    sh scripts/loadtest.sh -smoke
    echo "== scripts/loadtest.sh -kill"
    sh scripts/loadtest.sh -kill
else
    echo "== go test -race ./..."
    go test -race ./...
fi

if [ "${ARBORETUM_CHECK_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh smoke run (-benchtime 1x)"
    SMOKE_OUT="$(mktemp)"
    ARBORETUM_BENCH_TIME=1x ARBORETUM_BENCH_OUT="$SMOKE_OUT" sh scripts/bench.sh
    # A ledger row nothing emits any more is a number nobody can refresh:
    # every (pkg, op, ring) committed in BENCH_kernels.json for a package
    # that produced rows in this run must be among those rows.
    echo "== BENCH_kernels.json rows vs the benchmarks that exist"
    STALE="$(awk '
    function key(line) {
        if (!match(line, /"pkg": "[^"]*", "op": "[^"]*", "ring": [^,]*/)) return ""
        return substr(line, RSTART, RLENGTH)
    }
    { k = key($0); if (k == "") next; split(k, f, "\"") }
    FNR == NR { emitted[k] = 1; ran[f[4]] = 1; next }
    (f[4] in ran) && !(k in emitted) { print "  " k }
    ' "$SMOKE_OUT" BENCH_kernels.json)"
    rm -f "$SMOKE_OUT"
    if [ -n "$STALE" ]; then
        echo "BENCH_kernels.json has rows no benchmark emits (delete them or restore the benchmark):" >&2
        echo "$STALE" >&2
        exit 1
    fi
fi

echo "ok"
