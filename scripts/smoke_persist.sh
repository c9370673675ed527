#!/usr/bin/env sh
# smoke_persist.sh — end-to-end durability smoke test against a real
# ksjqd process: boot with -data and -load CSVs, warm a query, insert a
# batch (acknowledged => fsync'd), kill -9 the process, restart from the
# same data directory, and assert (1) the CSVs are NOT re-parsed (the
# store recovered them), (2) the recovered answer is byte-identical both
# to the pre-crash maintained answer and to a cold no_cache recompute,
# and (3) /v1/stats reports the durable counters. Requires only go and a
# POSIX shell; CI runs it in the smoke lane.
set -eu

addr=127.0.0.1:8374
workdir=$(mktemp -d)
trap 'kill -9 $pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ksjqd" ./cmd/ksjqd

# Two CSVs, 2 local + 1 aggregate attributes, two join groups.
gen_csv() {
    awk -v seed="$1" 'BEGIN {
        srand(seed)
        print "key,l1,l2,a1"
        for (i = 0; i < 40; i++)
            printf "g%d,%.4f,%.4f,%.4f\n", i % 2, rand(), rand(), rand()
    }' </dev/null >"$2"
}
gen_csv 1 "$workdir/r1.csv"
gen_csv 2 "$workdir/r2.csv"

boot() {
    "$workdir/ksjqd" -addr "$addr" -data "$workdir/data" \
        -load "r1,$workdir/r1.csv,2,1" -load "r2,$workdir/r2.csv,2,1" \
        >"$1" 2>&1 &
    pid=$!
    i=0
    until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke_persist: ksjqd did not come up on $addr" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

boot "$workdir/boot1.log"

query='{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping"}'
curl -fsS "http://$addr/v1/query" -d "$query" >/dev/null   # warm the cache

# One acknowledged batch: by the time curl returns, the WAL is fsync'd.
batch=$(awk 'BEGIN {
    srand(7)
    for (i = 0; i < 100; i++) {
        printf "%s{\"key\":\"g%d\",\"attrs\":[%.4f,%.4f,%.4f]}",
               (i ? "," : ""), i % 2, rand(), rand(), rand()
    }
}' </dev/null)
out=$(curl -fsS "http://$addr/v1/insert" -d "{\"relation\":\"r1\",\"tuples\":[$batch]}")
case $out in
*'"count":100'*) ;;
*) echo "smoke_persist: unexpected insert response: $out" >&2; exit 1 ;;
esac

before=$(curl -fsS "http://$addr/v1/query" -d "$query")
case $before in
*'"source":"maintained"'*) ;;
*) echo "smoke_persist: pre-crash answer not maintained: $before" >&2; exit 1 ;;
esac

# Crash. No shutdown hook runs: recovery sees exactly what fsync left.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

boot "$workdir/boot2.log"

if ! grep -q 'already recovered; skipping' "$workdir/boot2.log"; then
    echo "smoke_persist: restart re-parsed the -load CSVs instead of recovering:" >&2
    cat "$workdir/boot2.log" >&2
    exit 1
fi
if ! grep -q 'recovered relation r1 (140 tuples, version 2)' "$workdir/boot2.log"; then
    echo "smoke_persist: r1 did not recover with its batch and version:" >&2
    cat "$workdir/boot2.log" >&2
    exit 1
fi

after=$(curl -fsS "http://$addr/v1/query" -d "$query")
cold=$(curl -fsS "http://$addr/v1/query" \
    -d '{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping","no_cache":true}')

sky() { printf '%s' "$1" | sed -n 's/.*"skyline":\(.*\),"count".*/\1/p'; }
if [ "$(sky "$after")" != "$(sky "$cold")" ] || [ -z "$(sky "$cold")" ]; then
    echo "smoke_persist: recovered answer diverges from cold recompute" >&2
    echo "  recovered: $(sky "$after")" >&2
    echo "  cold:      $(sky "$cold")" >&2
    exit 1
fi
if [ "$(sky "$after")" != "$(sky "$before")" ]; then
    echo "smoke_persist: recovered answer diverges from the pre-crash answer" >&2
    echo "  before: $(sky "$before")" >&2
    echo "  after:  $(sky "$after")" >&2
    exit 1
fi

stats=$(curl -fsS "http://$addr/v1/stats")
case $stats in
*'"durable":true'*) ;;
*) echo "smoke_persist: stats do not report durable: $stats" >&2; exit 1 ;;
esac
case $stats in
*'"wal_records":'*) ;;
*) echo "smoke_persist: stats missing wal_records: $stats" >&2; exit 1 ;;
esac

echo "smoke_persist: OK (kill -9 survived; recovered answer == pre-crash == cold recompute)"
