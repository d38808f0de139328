#!/bin/sh
# Print the size counts ROADMAP's Aim 2 ("the least code") tracks:
#
#   non-test Go outside bench/ and tools/     (lines)
#   test Go outside bench/ and tools/         (lines)
#   tools/arblint non-test Go, no testdata    (lines)
#   living Markdown: README, DESIGN, EXPERIMENTS, docs/*, bench/README.md (bytes)
#   the longest non-test Go function outside bench/ and tools/ (lines, name)
#   //arblint:ignore directives in non-test Go outside bench/ and tools/
#   (each one a place the invariant analyzers are told to look away)
#
# and the operator-facing options: the exported fields of runtime.Config,
# arboretum.DeploymentConfig and service.Config, and the flags each
# cmd/*/main.go declares.
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

# A function runs from its `func` line to the first line that is `}` alone;
# one-line functions are skipped. The name carries its receiver type.
longest="$(gofiles ! -name '*_test.go' | xargs awk '
    FNR == 1 { start = 0 }
    /^func / && !/}$/ {
        name = $0; sub(/^func /, "", name); recv = ""
        if (name ~ /^\(/) {
            recv = name; sub(/\).*/, ")", recv); sub(/^\([^ ]* /, "(", recv)
            sub(/^\([^)]*\) /, "", name); recv = recv "."
        }
        sub(/[(\[].*/, "", name)
        start = FNR; label = FILENAME ": " recv name; sub(/^\.\//, "", label)
        next
    }
    start && /^}/ {
        if (FNR - start + 1 > best) { best = FNR - start + 1; what = label }
        start = 0
    }
    END { print best, what }
')"
printf '%-36s %8s  %s\n' "longest non-test Go function" "${longest%% *}" "${longest#* }"
printf '%-36s %8s\n' "arblint:ignore directives" \
    "$(gofiles ! -name '*_test.go' | xargs cat | grep -c '//arblint:ignore' || true)"

# fields FILE TYPE counts the exported field names declared in the struct
# TYPE of FILE, several per line in `A, B int`.
fields() {
    awk -v type="$2" '
        $0 ~ "^type " type " struct \\{" { in_struct = 1; next }
        in_struct && /^}/ { exit }
        in_struct && /^\t[A-Z]/ {
            sub(/^\t/, ""); sub(/\/\/.*/, "")
            n = split($0, names, ",")
            for (i = 1; i <= n; i++) if (names[i] ~ /^ *[A-Z]/) count++
        }
        END { print count + 0 }
    ' "$1"
}

printf '%-36s %8s\n' "runtime.Config fields" "$(fields internal/runtime/deployment.go Config)"
printf '%-36s %8s\n' "arboretum.DeploymentConfig fields" "$(fields arboretum.go DeploymentConfig)"
printf '%-36s %8s\n' "service.Config fields" "$(fields internal/service/service.go Config)"
for main in cmd/*/main.go; do
    printf '%-36s %8s\n' "$(basename "$(dirname "$main")") flags" \
        "$(grep -cE '\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|Uint|Uint64)\("' "$main" || true)"
done
