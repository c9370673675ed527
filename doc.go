// Package repro is a from-scratch Go reproduction of "K-Dominant Skyline
// Join Queries: Extending the Join Paradigm to K-Dominant Skylines"
// (Awasthi, Bhattacharya, Gupta, Singh; ICDE 2017).
//
// The public API is the ksjq package: one context-aware surface
// (ksjq.Run, ksjq.FindK, ksjq.Membership, …) over a single engine
// execution path that serves serial, parallel, and progressive modes.
// Repeated evaluation goes through prepared queries (ksjq.Prepare owns
// the reusable join structures plus a per-k answer memo), results can
// be consumed as range-over-func iterator streams (ksjq.Stream,
// Prepared.Stream), and ksjq.NewService is the embedded form of the
// ksjqd query server — resident relations, an answer cache, incremental
// maintenance under inserts, and watchable answers (Service.Watch
// delivers Added/Removed deltas as inserts arrive). The engine itself
// lives under internal/: see internal/core for the KSJQ algorithms and
// the "auto" rule (Result.Algorithm reports its pick), internal/service
// for the serving layer, internal/experiments for the figure harness, and
// DESIGN.md for the system inventory (§6 covers the facade and the
// unified execution path, §7 the query service, §9 the prepared/stream/
// watch surface). Executables are under cmd/ and runnable examples
// under examples/; README.md has the quickstarts. The root-level
// bench_test.go holds one testing.B benchmark per figure of the paper's
// evaluation plus the service and prepared-query benchmarks.
package repro
