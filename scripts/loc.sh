#!/bin/sh
# Print the four size counts ROADMAP's Aim 2 ("the least code") tracks:
#
#   non-test Go outside bench/ and tools/     (lines)
#   test Go outside bench/ and tools/         (lines)
#   tools/arblint non-test Go, no testdata    (lines)
#   living Markdown: README, DESIGN, EXPERIMENTS, docs/*, bench/README.md (bytes)
#
# Run from anywhere: scripts/loc.sh. It counts the working tree, so run it in
# two checkouts to compare a change with its parent.
set -eu

cd "$(dirname "$0")/.."

lines() { xargs cat | wc -l | tr -d ' '; }

gofiles() {
    find . -name '*.go' -not -path './bench/*' -not -path './tools/*' -not -path './.git/*' "$@"
}

printf '%-36s %8s\n' "non-test Go outside bench/ tools/" "$(gofiles ! -name '*_test.go' | lines)"
printf '%-36s %8s\n' "test Go outside bench/ tools/" "$(gofiles -name '*_test.go' | lines)"
printf '%-36s %8s\n' "tools/arblint non-test Go" \
    "$(find tools/arblint -name '*.go' ! -name '*_test.go' -not -path '*/testdata/*' | lines)"
printf '%-36s %8s\n' "living Markdown (bytes)" \
    "$(cat README.md DESIGN.md EXPERIMENTS.md docs/*.md bench/README.md | wc -c | tr -d ' ')"
