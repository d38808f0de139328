#!/bin/sh
# Compare a parent revision with the working tree on the benchmark, in
# alternated pairs: ROADMAP's rule for claims as one command.
#
#   sh scripts/pairs.sh [-n 10] [-s 6] <parent-rev> <workload>...
#
# It builds the bench binary twice, once from `git archive <parent-rev>`
# unpacked into a temporary directory and once from the working tree, and
# runs -n pairs (default 10) of -s seconds (default 6) per workload. The side
# that runs first alternates from pair to pair, and each pair gets a fresh
# seed, counted up from the clock at start, so seeds are not reused across
# invocations. Each binary runs from its own bench/ directory. The runs go to
# base.jsonl and change.jsonl in the current directory, which are truncated
# first; the script prints each pair's op_p50_ms, how many pairs the change
# won, and then `-compare base.jsonl change.jsonl`. It removes its temporary
# directory on exit. Information only, not a gate: it exits 0 whatever
# -compare finds, and non-zero only when a build or a run fails.
set -eu

n=10
secs=6
while getopts n:s: opt; do
    case $opt in
    n) n=$OPTARG ;;
    s) secs=$OPTARG ;;
    *) echo "usage: sh scripts/pairs.sh [-n 10] [-s 6] <parent-rev> <workload>..." >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ]; then
    echo "usage: sh scripts/pairs.sh [-n 10] [-s 6] <parent-rev> <workload>..." >&2
    exit 2
fi
rev=$1
shift

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
go build -C "$tmp/base/bench" -o "$tmp/base.bin" .
go build -C "$root/bench" -o "$tmp/change.bin" .
: >"$out/base.jsonl"
: >"$out/change.jsonl"

# run SIDE WORKLOAD SEED runs one side and prints its op_p50_ms.
run() {
    if [ "$1" = base ]; then dir=$tmp/base/bench; else dir=$root/bench; fi
    (cd "$dir" && "$tmp/$1.bin" -workload "$2" -seed "$3" -seconds "$secs" -trace 0 \
        -out "$out/$1.jsonl") >"$tmp/run.out" || return 1
    tail -n 1 "$tmp/run.out" | sed -n 's/.*"op_p50_ms":{"value":\([0-9.eE+-]*\).*/\1/p'
}

seed=$(date +%s)
for w in "$@"; do
    won=0
    i=1
    while [ "$i" -le "$n" ]; do
        seed=$((seed + 1))
        if [ $((i % 2)) -eq 1 ]; then
            b=$(run base "$w" "$seed") || exit 1
            c=$(run change "$w" "$seed") || exit 1
            first=base
        else
            c=$(run change "$w" "$seed") || exit 1
            b=$(run base "$w" "$seed") || exit 1
            first=change
        fi
        if awk -v b="$b" -v c="$c" 'BEGIN { exit !(c < b) }'; then won=$((won + 1)); fi
        printf '%s pair %d seed %d (%s first): op_p50_ms base %s, change %s\n' "$w" "$i" "$seed" "$first" "$b" "$c"
        i=$((i + 1))
    done
    printf '%s: the change won %d of %d pairs on op_p50_ms\n' "$w" "$won" "$n"
done

"$tmp/change.bin" -compare "$out/base.jsonl" "$out/change.jsonl" || true
