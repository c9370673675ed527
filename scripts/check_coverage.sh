#!/usr/bin/env sh
# check_coverage.sh — statement-coverage gate for the packages that hold
# the paper's algorithms, the planner, the service's mutation machinery,
# the sharded gateway, the HTTP codec and the public facade. Runs
# `go test -coverprofile` per package listed in scripts/coverage_floor.txt
# and fails when measured coverage drops below the checked-in floor.
#
# Flags (env):
#   WARN_ONLY=1   report shortfalls but exit 0 (fork CI, exploratory work)
set -eu

warn_only=${WARN_ONLY:-0}
floors=scripts/coverage_floor.txt
if [ ! -f "$floors" ]; then
    echo "check_coverage: $floors not found (run from the repo root)" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
while read -r pkg floor; do
    case $pkg in '' | '#'*) continue ;; esac
    profile="$tmp/$(echo "$pkg" | tr / _).out"
    out=$(go test -count=1 -coverprofile="$profile" "./$pkg")
    pct=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "check_coverage: could not parse coverage for $pkg:" >&2
        printf '%s\n' "$out" >&2
        exit 2
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "check_coverage: $pkg at ${pct}% — below the ${floor}% floor"
        fail=1
    else
        echo "check_coverage: $pkg at ${pct}% (floor ${floor}%)"
    fi
done < "$floors"

if [ "$fail" -eq 1 ]; then
    if [ "$warn_only" = 1 ]; then
        echo "check_coverage: WARN_ONLY=1 — reporting only"
        exit 0
    fi
    echo "check_coverage: FAIL — coverage below a checked-in floor" >&2
    exit 1
fi
echo "check_coverage: OK"
