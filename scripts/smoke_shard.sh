#!/usr/bin/env sh
# smoke_shard.sh — end-to-end cluster smoke test against real processes:
# boot two ksjqd shards and a gateway over them, register two relations
# through the gateway (partitioned by join key across the shards), insert
# a batch, and assert (1) the gateway's scatter-gathered answer is
# byte-identical to a cold no_cache recompute on a fresh single-node
# ksjqd over the same data, (2) that no_cache query left no answer on
# either shard for a later insert to maintain, (3) the round-2
# verification traffic shows up in the gateway's /v1/stats, and (4)
# killing one shard turns queries into a 503 naming the dead shard.
# Requires only go and a POSIX shell; CI runs it in the smoke lane.
set -eu

gw=127.0.0.1:8380
s0=127.0.0.1:8381
s1=127.0.0.1:8382
single=127.0.0.1:8383
workdir=$(mktemp -d)
trap 'kill $pid0 $pid1 $pidgw $pidsingle 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ksjqd" ./cmd/ksjqd
"$workdir/ksjqd" -addr "$s0" &
pid0=$!
"$workdir/ksjqd" -addr "$s1" &
pid1=$!
"$workdir/ksjqd" -addr "$single" &
pidsingle=$!

wait_up() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke_shard: $2 did not come up on $1" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_up "$s0" "shard 0"
wait_up "$s1" "shard 1"
wait_up "$single" "single-node oracle"

"$workdir/ksjqd" -addr "$gw" -gateway -shards "$s0,$s1" &
pidgw=$!
wait_up "$gw" "gateway"

# Two relations, 2 local + 1 aggregate attributes, 8 join groups (so the
# consistent hash spreads groups over both shards).
gen_tuples() {
    awk -v seed="$1" 'BEGIN {
        srand(seed)
        for (i = 0; i < 60; i++) {
            printf "%s{\"key\":\"g%d\",\"attrs\":[%.4f,%.4f,%.4f]}",
                   (i ? "," : ""), i % 8, rand(), rand(), rand()
        }
    }' </dev/null
}
for name in r1 r2; do
    seed=1; [ "$name" = r2 ] && seed=2
    body="{\"name\":\"$name\",\"local\":2,\"agg\":1,\"tuples\":[$(gen_tuples $seed)]}"
    curl -fsS "http://$gw/v1/relations" -d "$body" >/dev/null
    curl -fsS "http://$single/v1/relations" -d "$body" >/dev/null
done

# Both shards must actually hold a slice of each relation, or the test
# would not exercise the scatter at all.
placement=$(curl -fsS "http://$gw/v1/relations")
if echo "$placement" | grep -q '"per_shard":\[0,' || echo "$placement" | grep -q ',0\]'; then
    echo "smoke_shard: a shard holds no rows; partitioning is broken: $placement" >&2
    exit 1
fi

# Insert a batch through the gateway and mirror it on the single node.
batch=$(gen_tuples 7)
curl -fsS "http://$gw/v1/insert" -d "{\"relation\":\"r1\",\"tuples\":[$batch]}" >/dev/null
curl -fsS "http://$single/v1/insert" -d "{\"relation\":\"r1\",\"tuples\":[$batch]}" >/dev/null

# The gateway's merged answer must be byte-identical to the single
# node's cold recompute.
query='{"r1":"r1","r2":"r2","k":5,"no_cache":true}'
gw_skyline=$(curl -fsS "http://$gw/v1/query" -d "$query" | sed 's/.*"skyline":\(\[[^]]*\]\).*/\1/')
single_skyline=$(curl -fsS "http://$single/v1/query" -d "$query" | sed 's/.*"skyline":\(\[[^]]*\]\).*/\1/')
if [ "$gw_skyline" != "$single_skyline" ]; then
    echo "smoke_shard: gateway and single-node skylines differ" >&2
    echo "  gateway: $gw_skyline" >&2
    echo "  single : $single_skyline" >&2
    exit 1
fi
echo "smoke_shard: gateway answer matches single-node recompute"

# A no_cache query leaves no standing answer on either shard (round 1
# forwards the flag), so a later insert has nothing to maintain.
curl -fsS "http://$gw/v1/insert" -d "{\"relation\":\"r2\",\"tuples\":[$(gen_tuples 9)]}" >/dev/null
for shard in "$s0" "$s1"; do
    shard_stats=$(curl -fsS "http://$shard/v1/stats")
    case $shard_stats in
    *'"cache_entries":0,'*) ;;
    *)
        echo "smoke_shard: shard $shard holds answers after a no_cache query: $shard_stats" >&2
        exit 1
        ;;
    esac
done
echo "smoke_shard: no_cache left no answer on either shard"

# Round 2 really ran: the gateway shipped candidate batches.
stats=$(curl -fsS "http://$gw/v1/stats")
case $stats in
*'"r2_messages":0'*)
    echo "smoke_shard: no round-2 traffic recorded: $stats" >&2
    exit 1
    ;;
esac
echo "smoke_shard: round-2 verification traffic recorded"

# Kill shard 1: queries must fail fast with a 503 naming the dead shard.
kill "$pid1"
wait "$pid1" 2>/dev/null || true
code=$(curl -s -o "$workdir/body" -w '%{http_code}' "http://$gw/v1/query" -d "$query")
if [ "$code" != 503 ]; then
    echo "smoke_shard: want 503 after shard death, got $code: $(cat "$workdir/body")" >&2
    exit 1
fi
if ! grep -q "$s1" "$workdir/body"; then
    echo "smoke_shard: 503 body does not name the dead shard $s1: $(cat "$workdir/body")" >&2
    exit 1
fi
echo "smoke_shard: dead shard surfaces as 503 naming $s1"
echo "smoke_shard: PASS"
