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
# pinned to their steady-state allocation counts, the planner's scorer — run
# once per plan prefix the search visits — a warm vsr.Group.Field and a warm
# fixed-base comb walk to zero, and the committee MPC's Mul and Less below one
# allocation each. Runs inside
# `go test ./...` too; this named invocation bypasses the test cache so the
# gate always executes, and fails loudly on its own line when a hot path
# regresses.
echo "== alloc-regression gates"
go test ./internal/bgv ./internal/ahe ./internal/planner ./internal/vsr ./internal/fixedbase ./internal/mpc -run '^TestAllocGate' -count=1

# The 32-bit word path: word width changes the fixed-base comb's m′ =
# −m⁻¹ mod b, its carries and the word math/big's addMulVVW works on, and no
# other pass runs it (~8 s, most of it vsr). Its two callers run too.
echo "== GOARCH=386 go test ./internal/fixedbase ./internal/ahe ./internal/vsr"
GOARCH=386 go test ./internal/fixedbase ./internal/ahe ./internal/vsr

# Every go test -bench handle in the module (kernels, planner, ingest, vsr)
# is compiled by the passes above but run by none of them; one iteration
# each (~10 s in all) so a handle that panics or rots fails here.
echo "== bench handles (-benchtime 1x)"
go test ./... -run '^$' -bench . -benchtime 1x

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

# ROADMAP Aim 2's size counts, printed for information only: not a gate.
echo "== scripts/loc.sh"
sh scripts/loc.sh

echo "ok"
