// Package ksjq is the public face of the KSJQ system: one stable surface
// for evaluating K-Dominant Skyline Join Queries (Awasthi, Bhattacharya,
// Gupta, Singh; ICDE 2017) that CLIs, examples, and servers program
// against instead of reaching into internal packages.
//
// Every query runs on a single context-aware engine execution path:
//
//	res, err := ksjq.Run(ctx, q, ksjq.Options{})                       // auto picks the algorithm
//	res, err := ksjq.Run(ctx, q, ksjq.Options{Algorithm: ksjq.Grouping, Workers: 8})
//	res, err := ksjq.Run(ctx, q, ksjq.Options{Algorithm: ksjq.Grouping, Emit: stream})
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
	"repro/internal/planner"
)

// Algorithm selects the evaluation strategy. The zero value, Auto, lets
// the engine's one rule choose; Result.Algorithm reports its pick.
type Algorithm int

const (
	// Auto lets the engine choose (core.ResolveAuto): naive under a
	// non-strict aggregator or for a join of at most 2 048 pairs, the
	// dominator-based algorithm otherwise. Workers, Emit, Limit and Stream
	// never change the pick.
	Auto Algorithm = iota
	// Naive joins first, then computes the k-dominant skyline (Algo 1).
	Naive
	// Grouping categorizes base tuples into SS/SN/NN and prunes or emits
	// whole cells of the fate table before joining (Algo 2).
	Grouping
	// DominatorBased additionally materializes explicit dominator sets so
	// "may be" tuples are verified against small joins (Algo 3).
	DominatorBased
)

// String names the strategy the way the CLI flags spell it.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Naive:
		return "naive"
	case Grouping:
		return "grouping"
	case DominatorBased:
		return "dominator"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps CLI spellings (and the paper's one-letter labels) to
// an Algorithm. It delegates to the engine's one spelling table, shared
// with the query service's request parser.
func ParseAlgorithm(s string) (Algorithm, error) {
	calg, err := core.ParseAlgorithm(s)
	if err != nil {
		return 0, fmt.Errorf("ksjq: unknown algorithm %q (want auto, naive, grouping or dominator)", s)
	}
	switch calg {
	case core.Naive:
		return Naive, nil
	case core.Grouping:
		return Grouping, nil
	case core.DominatorBased:
		return DominatorBased, nil
	default:
		return Auto, nil
	}
}

// Label returns the paper's one-letter figure label for a concrete
// strategy ("N", "G", "D") and "auto" for Auto.
func (a Algorithm) Label() string {
	calg, err := a.coreAlgorithm()
	if err != nil || calg == core.Auto {
		return a.String()
	}
	return calg.String()
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

func (a Algorithm) coreAlgorithm() (core.Algorithm, error) {
	switch a {
	case Auto:
		return core.Auto, nil
	case Naive:
		return core.Naive, nil
	case Grouping:
		return core.Grouping, nil
	case DominatorBased:
		return core.DominatorBased, nil
	default:
		return 0, fmt.Errorf("ksjq: %v has no core algorithm", a)
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
	// Emit, when non-nil, streams each confirmed tuple instead of
	// collecting Result.Skyline; returning false stops the query early.
	// Emit is a thin adapter over Stream — new code should range over
	// Stream directly. Emitted pairs are detached from internal arenas and
	// arrive in the order Stream documents.
	Emit Emit
	// K, when > 0, overrides the query's K for this run — the knob that
	// lets one Prepared snapshot (which is k-independent) serve queries
	// across dominance levels without rebuilding.
	K int
	// Limit > 0 caps the answer at that many tuples. The grouping and
	// dominator-based algorithms stop the run the moment the cap is
	// reached (strictly less verification work; after the cell, in a cell
	// verified in parallel, as with Emit); which members survive is
	// unspecified beyond "a subset of the skyline". The naive algorithm
	// computes the full answer and truncates after the canonical sort.
	Limit int
	// Stats, when non-nil, receives the run's phase timings and work
	// counters once a Stream ends (normally, by early break, or by
	// cancellation mid-run). Run ignores it — the Result already carries
	// Stats — it exists because an iterator has no other result channel.
	Stats *Stats
	// NoCache makes Prepared.Run skip the prepared answer memo (the
	// result still refreshes it) — for callers that need a recompute, not
	// a warm answer. Run and Stream ignore it.
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
// strategy (Result.Algorithm reports it; RunAuto also returns the reason).
// An empty join answers the empty skyline. The context bounds the whole
// call.
func Run(ctx context.Context, q Query, opts Options) (*Result, error) {
	return run(ctx, q, opts, nil)
}

// run is the shared execution path behind Run and Prepared.Run: drive the
// engine — over the resident snapshot when one is supplied.
// A non-nil Emit is routed through the stream implementation, making the
// push callback a thin adapter over the pull iterator.
func run(ctx context.Context, q Query, opts Options, res *core.Resident) (*Result, error) {
	if opts.K > 0 {
		q.K = opts.K
	}
	if opts.Emit != nil {
		emit := opts.Emit
		sopts := opts
		sopts.Emit = nil
		var st Stats
		sopts.Stats = &st
		for p, err := range streamSeq(ctx, q, sopts, res) {
			if err != nil {
				return nil, err
			}
			if !emit(p) {
				break
			}
		}
		return &Result{Stats: st}, nil
	}
	calg, err := opts.Algorithm.coreAlgorithm()
	if err != nil {
		return nil, err
	}
	return core.Exec(ctx, q, core.ExecOptions{
		Algorithm: calg, Workers: opts.Workers, Limit: opts.Limit, Resident: res,
	})
}

// RunAuto runs Auto and returns the planner's account of the pick
// alongside the result. opts is unused.
func RunAuto(ctx context.Context, q Query, opts PlannerOptions) (*Result, *Plan, error) {
	return planner.Run(ctx, q, opts)
}

// Choose reports which algorithm Auto would pick for any Run or Stream,
// and why, without executing the query. It samples nothing: the plan's
// Estimate carries only the exact join size.
func Choose(ctx context.Context, q Query, opts PlannerOptions) (*Plan, error) {
	return planner.Choose(ctx, q, opts)
}

// EstimateCardinality samples the join and estimates the skyline size.
func EstimateCardinality(ctx context.Context, q Query, opts PlannerOptions) (*Estimate, error) {
	return planner.EstimateCardinality(ctx, q, opts)
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

// IsSkylineMember answers a single membership point query.
func IsSkylineMember(ctx context.Context, q Query, i, j int) (bool, error) {
	members, err := core.MembershipContext(ctx, q, [][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return members[0], nil
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

// Workers renders a parallel degree for CLI output ("auto (8)" for <= 0).
func Workers(workers int) string {
	return core.Workers(workers)
}
