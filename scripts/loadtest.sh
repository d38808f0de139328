#!/bin/sh
# Smoke-test and crash-test the arboretumd analyst gateway.
#
#   scripts/loadtest.sh -smoke     # CI conformance pass: every docs/SERVICE.md
#                                  # endpoint, typed budget rejection, exact debits
#   scripts/loadtest.sh -kill      # crash-recovery pass: SIGKILL the daemon
#                                  # mid-burst, restart it on the same ledger,
#                                  # verify every accepted job recovers to done
#                                  # with exact budget accounting
#
# Both modes build arboretumd + arbload, start a daemon on a free port with
# a fresh temporary ledger, drive it over HTTP, and shut it down. (The
# gateway's tracked latency/throughput baseline is bench/'s gateway-closed
# workload, not this script.) Tunables (environment): ARBORETUM_LOAD_DEVICES
# (simulated devices per job, default 64) and, for -kill's burst,
# ARBORETUM_LOAD_QUERIES (default 24) and ARBORETUM_LOAD_TENANTS (default 4).
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
-smoke) MODE=smoke ;;
-kill) MODE=kill ;;
*)
    echo "usage: scripts/loadtest.sh -smoke | -kill" >&2
    exit 2
    ;;
esac

QUERIES="${ARBORETUM_LOAD_QUERIES:-24}"
TENANTS="${ARBORETUM_LOAD_TENANTS:-4}"
DEVICES="${ARBORETUM_LOAD_DEVICES:-64}"

WORKDIR="$(mktemp -d)"
DAEMON_LOG="$WORKDIR/arboretumd.log"
LEDGER="$WORKDIR/arboretumd.ledger"
IDS="$WORKDIR/accepted.ids"
DAEMON_PID=""

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "== go build arboretumd + arbload"
go build -o "$WORKDIR/arboretumd" ./cmd/arboretumd
go build -o "$WORKDIR/arbload" ./cmd/arbload

# The smoke pass needs -job-workers 1 so its second submission stays queued
# (it cancels a queued job); the kill pass gets more executors so jobs are
# both queued and executing when the daemon dies. Neither is rate-limited.
if [ "$MODE" = smoke ]; then
    JOB_WORKERS=1
else
    JOB_WORKERS=4
fi

# start_daemon LOGFILE: launch arboretumd against $LEDGER (its one durable
# file), wait for the "listening on" line, and set DAEMON_PID + ADDR. Called
# twice in kill mode — the restart reuses the same ledger, which is the
# point.
start_daemon() {
    log="$1"
    "$WORKDIR/arboretumd" -addr 127.0.0.1:0 -ledger "$LEDGER" \
        -devices "$DEVICES" -job-workers "$JOB_WORKERS" -queue 256 \
        -rate 0 -max-inflight 0 > "$log" 2>&1 &
    DAEMON_PID=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR="$(sed -n 's/^arboretumd: listening on \([^ ]*\).*/\1/p' "$log" 2>/dev/null | head -n 1)"
        if [ -n "$ADDR" ]; then
            break
        fi
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "arboretumd exited before listening:" >&2
            cat "$log" >&2
            exit 1
        fi
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "arboretumd never reported its address:" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "== arboretumd at $ADDR (pid $DAEMON_PID)"
}

echo "== starting arboretumd (devices=$DEVICES, job-workers=$JOB_WORKERS)"
start_daemon "$DAEMON_LOG"

case "$MODE" in
smoke)
    "$WORKDIR/arbload" -addr "$ADDR" -smoke
    ;;
kill)
    # Phase 1: submit a burst in the background, recording each accepted
    # (202) job. Once a few acceptances are on disk — jobs queued and
    # executing — SIGKILL the daemon: no drain, no ledger close, the
    # hardest crash it can take.
    "$WORKDIR/arbload" -addr "$ADDR" -phase submit -ids "$IDS" \
        -queries "$QUERIES" -tenants "$TENANTS" > "$WORKDIR/submit.log" 2>&1 &
    LOAD_PID=$!
    i=0
    while [ $i -lt 200 ]; do
        n=0
        if [ -f "$IDS" ]; then
            n="$(wc -l < "$IDS")"
        fi
        if [ "$n" -ge 3 ]; then
            break
        fi
        if ! kill -0 "$LOAD_PID" 2>/dev/null; then
            break
        fi
        i=$((i + 1))
        sleep 0.05
    done
    echo "== SIGKILL arboretumd mid-burst ($n jobs accepted so far)"
    kill -9 "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
    wait "$LOAD_PID" || { cat "$WORKDIR/submit.log" >&2; exit 1; }
    cat "$WORKDIR/submit.log"
    if ! [ -s "$IDS" ]; then
        echo "no jobs were accepted before the kill — nothing to verify" >&2
        exit 1
    fi
    # Phase 2: restart on the same ledger and hold recovery to the
    # exact-accounting bar: every acknowledged job done with its certified
    # spend, nothing reserved, budgets exact. The ledger is the only file the
    # first life left behind.
    if [ "$(ls "$WORKDIR" | grep -c '^arboretumd\.ledger')" != 1 ]; then
        echo "the daemon left more than one durable file:" >&2
        ls "$WORKDIR" >&2
        exit 1
    fi
    echo "== restarting arboretumd on the same ledger"
    start_daemon "$WORKDIR/arboretumd-2.log"
    "$WORKDIR/arbload" -addr "$ADDR" -phase verify -ids "$IDS"
    ;;
esac

echo "== ledger tail"
tail -n 5 "$LEDGER"
echo "ok"
