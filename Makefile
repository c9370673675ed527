GO ?= go

.PHONY: build vet test race bench bench-check loc coverage docs-check examples staticcheck apicheck shuffle ingest-smoke delete-smoke shard-smoke persist-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the godoc examples (the docs lane's executable documentation).
examples:
	$(GO) test -run Example -v ./ksjq/

# Snapshot the tracked microbenchmarks (best-of-COUNT, default 5) into the
# kernel-history record DESIGN.md cites. A record, not a gate: time-based
# regression gating is `bash bench/run.sh -compare` (bench/README.md), and
# the allocation counts the snapshots record are exact tier-1 tests
# (TestWarmQueryHitAllocs, TestPreparedMemoHitAllocs,
# TestGatewayWarmHitAllocs).
bench:
	./scripts/bench_snapshot.sh BENCH_pr10.json

# The end-to-end benchmark harness (bench/) is a module of its own that
# imports repro/internal/..., so `go build ./... && go test ./...` never
# compiles it: vet and test it here so an internal refactor cannot break
# the harness unseen (~8 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The code-line measure code-diet PRs report: non-blank, non-comment lines
# of non-test Go outside bench/, one line per package, then the total.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 awk \
		'!/^[[:space:]]*($$|\/\/)/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d]++; t++ } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'

# Statement-coverage gate: each package listed in scripts/coverage_floor.txt
# against its floor there (WARN_ONLY=1 to report only).
coverage:
	./scripts/check_coverage.sh

# Fail if README.md references commands, flags, or files that are gone.
docs-check:
	./scripts/check_docs.sh

# Public-API golden check: fails fast, with a readable diff, when the
# exported ksjq surface changed without regenerating testdata/api.txt
# (`go test ./ksjq -run TestAPISurface -update` records intentional
# changes).
apicheck:
	$(GO) test ./ksjq -run TestAPISurface

# Shuffled test order: catches inter-test coupling the fixed order hides.
shuffle:
	$(GO) test -shuffle=on ./...

# Ingest smoke: boot ksjqd, POST a batched insert, check the maintained
# answer against a no_cache recompute.
ingest-smoke:
	./scripts/smoke_ingest.sh

# Delete smoke: the same round trip through a batched /v1/delete.
delete-smoke:
	./scripts/smoke_delete.sh

# Cluster smoke: boot 2 real shard processes + a gateway, check the
# scatter-gathered answer against a single-node recompute, that no_cache
# leaves no answer on the shards, and that a dead shard surfaces as a 503
# naming it.
shard-smoke:
	./scripts/smoke_shard.sh

# Durability smoke: boot ksjqd with -data, insert a batch, kill -9, restart
# from the same directory, check the recovered answer against both the
# pre-crash maintained answer and a cold recompute.
persist-smoke:
	./scripts/smoke_persist.sh

# Static analysis. CI installs staticcheck; locally this uses whatever is
# on PATH and explains itself if nothing is.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; run: go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

ci: build vet test race shuffle apicheck bench-check coverage examples docs-check ingest-smoke delete-smoke shard-smoke persist-smoke
