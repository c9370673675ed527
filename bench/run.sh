#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds ksjq-bench and ksjqd
# from source and runs one benchmark run. Everything the build writes — the
# Go build cache, temp files, both binaries — stays in .bench_build inside
# the checkout; nothing outside the checkout is touched.
#
#   bash bench/run.sh --workload adhoc --seed 1 --seconds 26 --trace 0
#   bash bench/run.sh -all -seed 1 -out bench/out/a.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS=-buildvcs=false
# bench/ is a module of its own whose go.mod points at the repository root:
# in a directory holding only the benchmark this build fails, and so does
# the run.
(cd "$root/bench" && go build -o "$build/ksjq-bench" .)
(cd "$root" && go build -o "$build/ksjqd" ./cmd/ksjqd)
cd "$root"
exec "$build/ksjq-bench" -ksjqd "$build/ksjqd" "$@"
