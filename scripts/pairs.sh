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
# first; the script prints each pair's op_p50_ms, scaled to the reference
# machine speed and as measured, and cpu_s_per_op; then how many pairs the
# change won on the scaled op_p50_ms, each side's median as measured, and
# `-compare base.jsonl change.jsonl`. It removes its temporary
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

# run SIDE WORKLOAD SEED runs one side and prints its op_p50_ms, its
# op_p50_ms as measured (the bench prints "(x as measured)" after a scaled
# value that differs) and its cpu_s_per_op, separated by spaces.
run() {
    if [ "$1" = base ]; then dir=$tmp/base/bench; else dir=$root/bench; fi
    (cd "$dir" && "$tmp/$1.bin" -workload "$2" -seed "$3" -seconds "$secs" -trace 0 \
        -out "$out/$1.jsonl") >"$tmp/run.out" || return 1
    awk '$1 == "op_p50_ms" { p = $2; r = $2; if ($4 ~ /^\(/) r = substr($4, 2) }
        $1 == "cpu_s_per_op" { c = $2 }
        END { print p, r, c }' "$tmp/run.out"
}

# field N STRING prints the Nth space-separated field of STRING.
field() { echo "$2" | cut -d' ' -f"$1"; }

# median prints the median of its arguments.
median() {
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

seed=$(date +%s)
for w in "$@"; do
    won=0
    braw=
    craw=
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
        if awk -v b="$(field 1 "$b")" -v c="$(field 1 "$c")" 'BEGIN { exit !(c < b) }'; then won=$((won + 1)); fi
        braw="$braw $(field 2 "$b")"
        craw="$craw $(field 2 "$c")"
        printf '%s pair %d seed %d (%s first): op_p50_ms base %s, change %s; as measured %s, %s; cpu_s_per_op %s, %s\n' \
            "$w" "$i" "$seed" "$first" "$(field 1 "$b")" "$(field 1 "$c")" \
            "$(field 2 "$b")" "$(field 2 "$c")" "$(field 3 "$b")" "$(field 3 "$c")"
        i=$((i + 1))
    done
    printf '%s: the change won %d of %d pairs on op_p50_ms\n' "$w" "$won" "$n"
    printf '%s: median op_p50_ms as measured: base %s, change %s\n' "$w" "$(median $braw)" "$(median $craw)"
done

"$tmp/change.bin" -compare "$out/base.jsonl" "$out/change.jsonl" || true
