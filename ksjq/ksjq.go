// Package ksjq is the public face of the KSJQ system: one stable surface
// for evaluating K-Dominant Skyline Join Queries (Awasthi, Bhattacharya,
// Gupta, Singh; ICDE 2017) that CLIs, examples, and servers program
// against instead of reaching into internal packages.
//
// Every query runs on a single context-aware engine execution path:
//
//	res, err := ksjq.Run(ctx, q, ksjq.Options{})                       // auto picks the algorithm
//	res, err := ksjq.Run(ctx, q, ksjq.Options{Algorithm: ksjq.Grouping, Workers: 8})
//	for p, err := range ksjq.Stream(ctx, q, ksjq.Options{Limit: 10}) { ... }
//
// The context carries the query's deadline: cancellation is noticed
// between phases and periodically inside candidate verification (the
// dominant cost), so every entry point returns ctx.Err() promptly with no
// goroutines left behind — the property a deployment serving heavy
// traffic needs from every request it admits.
package ksjq

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Algorithm selects the evaluation strategy: the engine's own type, whose
// String is the paper's figure letter ("N", "G", "D", "A") and whose Token
// is the CLI word. The zero value, Auto, lets the engine's one rule
// choose; Result.Algorithm reports its pick.
type Algorithm = core.Algorithm

const (
	// Auto lets the engine choose (core.ResolveAuto): naive under a
	// non-strict aggregator or for a join of at most 2 048 pairs, the
	// dominator-based algorithm otherwise. Workers, Limit and Stream never
	// change the pick.
	Auto = core.Auto
	// Naive joins first, then computes the k-dominant skyline (Algo 1).
	Naive = core.Naive
	// Grouping categorizes base tuples into SS/SN/NN and prunes or emits
	// whole cells of the fate table before joining (Algo 2).
	Grouping = core.Grouping
	// DominatorBased additionally materializes explicit dominator sets so
	// "may be" tuples are verified against small joins (Algo 3).
	DominatorBased = core.DominatorBased
)

// ParseAlgorithm maps CLI spellings (and the paper's one-letter labels) to
// an Algorithm; the empty string means Auto. It is the engine's one
// spelling table, shared with the query service's request parser.
func ParseAlgorithm(s string) (Algorithm, error) {
	return core.ParseAlgorithm(s)
}

// ParseFindKAlgorithm maps CLI spellings to a find-k strategy.
func ParseFindKAlgorithm(s string) (FindKAlgorithm, error) {
	switch strings.ToLower(s) {
	case "naive", "n":
		return FindKNaive, nil
	case "range", "r":
		return FindKRange, nil
	case "binary", "b":
		return FindKBinary, nil
	default:
		return 0, fmt.Errorf("ksjq: unknown find-k algorithm %q (want naive, range or binary)", s)
	}
}

// Options configures one Run or Stream on the unified execution path.
type Options struct {
	// Algorithm selects the strategy; Auto (the zero value) resolves
	// through the engine's one rule (see Auto), which never conflicts
	// with the other options.
	Algorithm Algorithm
	// Workers > 1 verifies the grouping and dominator-based algorithms'
	// candidates in parallel. It conflicts with an explicit Naive
	// (ErrOptionConflict); Auto ignores it when it picks naive.
	Workers int
	// K, when > 0, overrides the query's K for this run — the knob that
	// lets one Prepared snapshot serve queries across dominance levels
	// without rebuilding; the snapshot holds each k's categorization and
	// target sets once a run at that k has built them.
	K int
	// Limit > 0 caps the answer at that many tuples. The grouping and
	// dominator-based algorithms stop the run the moment the cap is
	// reached (strictly less verification work; after the cell, in a cell
	// verified in parallel); which members survive is unspecified beyond
	// "a subset of the skyline". The naive algorithm computes the full
	// answer and truncates after the canonical sort.
	Limit int
	// Stats, when non-nil, receives the run's phase timings and work
	// counters once a Stream ends, normally or by early break; a run that
	// fails (cancellation included) leaves it untouched. Run ignores it —
	// the Result already carries Stats — it exists because an iterator has
	// no other result channel.
	Stats *Stats
	// NoCache makes Prepared.Run neither read nor write the prepared
	// answer memo — for callers that need a recompute, not a warm answer.
	// Run and Stream ignore it.
	NoCache bool
}

// ErrOptionConflict is returned when Workers > 1 is combined with an
// explicit Naive, the one algorithm without cells to verify in parallel.
// Auto never conflicts.
var ErrOptionConflict = core.ErrOptionConflict

// ErrStaleResident is returned by Prepared methods (and by the engine
// underneath the query service) when the prepared snapshot no longer
// matches the relations — they grew or shrank since Prepare. Rebind
// rebuilds the snapshot against the relations' current state.
var ErrStaleResident = core.ErrStaleResident

// Run evaluates one query. With Algorithm == Auto the engine picks the
// strategy and Result.Algorithm reports it. An empty join answers the
// empty skyline. The context bounds the whole call.
func Run(ctx context.Context, q Query, opts Options) (*Result, error) {
	return run(ctx, q, opts, nil)
}

// run is the shared execution path behind Run and Prepared.Run: one
// engine call, over the resident snapshot when one is supplied.
func run(ctx context.Context, q Query, opts Options, res *core.Resident) (*Result, error) {
	if opts.K > 0 {
		q.K = opts.K
	}
	return core.Exec(ctx, q, core.ExecOptions{
		Algorithm: opts.Algorithm, Workers: opts.Workers, Limit: opts.Limit, Resident: res,
	})
}

// FindK solves Problem 3: the smallest k whose k-dominant skyline join has
// at least delta tuples.
func FindK(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return core.FindKContext(ctx, q, delta, alg)
}

// FindKAtMost solves Problem 4: the largest k whose skyline has at most
// delta tuples.
func FindKAtMost(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return core.FindKAtMostContext(ctx, q, delta, alg)
}

// Membership tests many joined pairs for skyline membership at once; the
// result slice is parallel to pairs.
func Membership(ctx context.Context, q Query, pairs [][2]int) ([]bool, error) {
	return core.MembershipContext(ctx, q, pairs)
}

// NewMaintainer builds an incremental maintainer of q's answer, for
// workloads where tuples arrive and leave while the skyline must stay
// current.
func NewMaintainer(q Query) (*Maintainer, error) {
	return core.NewMaintainer(q)
}

// RunCascade evaluates a cascaded KSJQ over three or more relations
// (Sec. 2.3's chain-join extension). Like every other entry point, the
// context bounds the whole evaluation: cancellation is noticed between
// chain steps and periodically inside join folding and verification.
func RunCascade(ctx context.Context, q CascadeQuery, strategy CascadeStrategy) (*CascadeResult, error) {
	return runCascade(ctx, q, strategy)
}
