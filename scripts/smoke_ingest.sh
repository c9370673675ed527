#!/usr/bin/env sh
# smoke_ingest.sh — end-to-end group-commit smoke test against a real
# ksjqd process: register two relations, warm a query, POST one
# 100-tuple batch to /v1/insert, and assert (1) the batch was absorbed
# into the maintained answer (source "maintained", one group commit in
# /v1/stats) and (2) the maintained skyline is byte-identical to a cold
# no_cache recompute over the grown relations. Requires only go and a
# POSIX shell; CI runs it in the smoke lane.
set -eu

addr=127.0.0.1:8373
workdir=$(mktemp -d)
trap 'kill $pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ksjqd" ./cmd/ksjqd
"$workdir/ksjqd" -addr "$addr" &
pid=$!

# Wait for the server to come up.
i=0
until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smoke_ingest: ksjqd did not come up on $addr" >&2
        exit 1
    fi
    sleep 0.1
done

# Two relations, 2 local + 1 aggregate attributes, two join groups.
gen_tuples() {
    seed=$1
    awk -v seed="$seed" 'BEGIN {
        srand(seed)
        for (i = 0; i < 40; i++) {
            printf "%s{\"key\":\"g%d\",\"attrs\":[%.4f,%.4f,%.4f]}",
                   (i ? "," : ""), i % 2, rand(), rand(), rand()
        }
    }' </dev/null
}
for name in r1 r2; do
    seed=1; [ "$name" = r2 ] && seed=2
    curl -fsS "http://$addr/v1/relations" \
        -d "{\"name\":\"$name\",\"local\":2,\"agg\":1,\"tuples\":[$(gen_tuples $seed)]}" >/dev/null
done

query='{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping"}'
curl -fsS "http://$addr/v1/query" -d "$query" >/dev/null   # warm the cache
curl -fsS "http://$addr/v1/query" -d "$query" >/dev/null   # cached hit

# One 100-tuple group commit.
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
*) echo "smoke_ingest: unexpected insert response: $out" >&2; exit 1 ;;
esac

maintained=$(curl -fsS "http://$addr/v1/query" -d "$query")
case $maintained in
*'"source":"maintained"'*) ;;
*) echo "smoke_ingest: post-batch answer not maintained: $maintained" >&2; exit 1 ;;
esac

cold=$(curl -fsS "http://$addr/v1/query" \
    -d '{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping","no_cache":true}')

sky() { printf '%s' "$1" | sed -n 's/.*"skyline":\(.*\),"count".*/\1/p'; }
if [ "$(sky "$maintained")" != "$(sky "$cold")" ] || [ -z "$(sky "$cold")" ]; then
    echo "smoke_ingest: maintained answer diverges from cold recompute" >&2
    echo "  maintained: $(sky "$maintained")" >&2
    echo "  cold:       $(sky "$cold")" >&2
    exit 1
fi

stats=$(curl -fsS "http://$addr/v1/stats")
case $stats in
*'"batches":1'*) ;;
*) echo "smoke_ingest: expected one group commit in stats: $stats" >&2; exit 1 ;;
esac

echo "smoke_ingest: OK (100-tuple batch absorbed; maintained == cold recompute)"
