#!/usr/bin/env sh
# smoke_delete.sh — end-to-end delete smoke test against a real ksjqd
# process, the mirror of smoke_ingest.sh for the maintenance path's other
# direction: register two relations, warm a query, grow r1 with one
# batched insert, then POST a batch delete to /v1/delete and assert
# (1) the batch was retracted from the maintained answer (source
# "maintained", the delete counted in /v1/stats) and (2) the maintained
# skyline is byte-identical to a cold no_cache recompute over the
# shrunken relations. Requires only go and a POSIX shell; CI runs it in
# the smoke lane.
set -eu

addr=127.0.0.1:8374
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
        echo "smoke_delete: ksjqd did not come up on $addr" >&2
        exit 1
    fi
    sleep 0.1
done

# Two relations, 2 local + 1 aggregate attributes, two join groups.
gen_tuples() {
    seed=$1
    n=$2
    awk -v seed="$seed" -v n="$n" 'BEGIN {
        srand(seed)
        for (i = 0; i < n; i++) {
            printf "%s{\"key\":\"g%d\",\"attrs\":[%.4f,%.4f,%.4f]}",
                   (i ? "," : ""), i % 2, rand(), rand(), rand()
        }
    }' </dev/null
}
for name in r1 r2; do
    seed=1; [ "$name" = r2 ] && seed=2
    curl -fsS "http://$addr/v1/relations" \
        -d "{\"name\":\"$name\",\"local\":2,\"agg\":1,\"tuples\":[$(gen_tuples $seed 40)]}" >/dev/null
done

query='{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping"}'
curl -fsS "http://$addr/v1/query" -d "$query" >/dev/null   # warm the cache

# Grow r1 first so the deleted rows sit inside a maintained answer.
out=$(curl -fsS "http://$addr/v1/insert" \
    -d "{\"relation\":\"r1\",\"tuples\":[$(gen_tuples 7 60)]}")
case $out in
*'"count":60'*) ;;
*) echo "smoke_delete: unexpected insert response: $out" >&2; exit 1 ;;
esac

# One batch delete, spread across the relation (8 of 100 rows: the
# incremental retract arm).
out=$(curl -fsS "http://$addr/v1/delete" \
    -d '{"relation":"r1","ids":[0,3,17,29,41,53,76,99]}')
case $out in
*'"count":8'*) ;;
*) echo "smoke_delete: unexpected delete response: $out" >&2; exit 1 ;;
esac

maintained=$(curl -fsS "http://$addr/v1/query" -d "$query")
case $maintained in
*'"source":"maintained"'*) ;;
*) echo "smoke_delete: post-delete answer not maintained: $maintained" >&2; exit 1 ;;
esac

cold=$(curl -fsS "http://$addr/v1/query" \
    -d '{"r1":"r1","r2":"r2","k":5,"algorithm":"grouping","no_cache":true}')

sky() { printf '%s' "$1" | sed -n 's/.*"skyline":\(.*\),"count".*/\1/p'; }
if [ "$(sky "$maintained")" != "$(sky "$cold")" ] || [ -z "$(sky "$cold")" ]; then
    echo "smoke_delete: maintained answer diverges from cold recompute" >&2
    echo "  maintained: $(sky "$maintained")" >&2
    echo "  cold:       $(sky "$cold")" >&2
    exit 1
fi

stats=$(curl -fsS "http://$addr/v1/stats")
case $stats in
*'"deletes":8'*) ;;
*) echo "smoke_delete: expected 8 deleted tuples in stats: $stats" >&2; exit 1 ;;
esac
case $stats in
*'"delete_batches":1'*) ;;
*) echo "smoke_delete: expected one delete group commit in stats: $stats" >&2; exit 1 ;;
esac

echo "smoke_delete: OK (8-row batch retracted; maintained == cold recompute)"
