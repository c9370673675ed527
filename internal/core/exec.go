package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/join"
)

// ExecOptions configures the unified execution path. The zero value runs
// the naive algorithm serially; callers normally set Algorithm.
type ExecOptions struct {
	// Algorithm selects the evaluation strategy; Auto lets ResolveAuto
	// pick it.
	Algorithm Algorithm
	// Workers > 1 verifies candidates in parallel on the grouping
	// algorithm's execution path; any other value runs serially. Under
	// Auto the degree is read clamped to GOMAXPROCS, and it is ignored
	// when the rule picks another arm.
	Workers int
	// Emit, when non-nil, streams each confirmed skyline tuple instead of
	// collecting the answer in Result.Skyline. Under Auto with a non-strict
	// aggregator the naive answer is emitted once computed, in (Left,
	// Right) order. Returning false stops the
	// query early (not an error). Emitted pairs are detached from internal
	// arenas, so callers may retain them. Tuples arrive cell by cell (yes,
	// SS⋈SN, SN⋈SS, SN⋈SN), not in (Left, Right) order. Each tuple is
	// emitted the moment it is verified, except in a cell the worker pool
	// verifies (Workers > 1 and more candidates than one pool chunk): its
	// survivors are emitted in candidate order once the whole cell is
	// verified, and a false return stops before the next cell.
	Emit Emit
	// Resident, when non-nil, supplies prebuilt per-(R1, R2, condition)
	// structures (full-R2 join index, probe orders) so
	// the engine skips their construction — the reuse the query service
	// relies on for resident relations. It must have been built by
	// NewResident over exactly the query's relations and condition;
	// otherwise Exec returns ErrStaleResident. The naive algorithm
	// materializes the full join instead of probing and ignores it.
	Resident *Resident
	// Limit > 0 caps the answer at that many tuples. The grouping
	// algorithm stops the run the moment the cap is reached (strictly
	// less verification work; after the cell, in a cell the pool verifies,
	// as with Emit); the other algorithms compute the full answer and
	// truncate it after the canonical sort. Which members survive a
	// grouping-path cap is unspecified beyond "a subset of the skyline" —
	// tuples are confirmed in cell order, not (Left, Right) order.
	Limit int
}

// Emit receives one confirmed skyline tuple. Returning false cancels the
// query; the run then returns with whatever work was done. Streaming
// addresses the naive algorithm's weakness the paper calls out in Sec. 6.1:
// with join-then-compute the user waits for the whole join before seeing
// the first result, while the grouping algorithm can stream the entire
// SS1 ⋈ SS2 cell right after categorization and each "likely"/"may be"
// candidate as soon as its target-set check passes.
type Emit func(p join.Pair) bool

// ErrOptionConflict is returned when exec options are combined with an
// explicit algorithm that cannot honor them (Workers/Emit require
// Grouping). Auto never conflicts.
var ErrOptionConflict = errors.New("core: workers and emit require the grouping algorithm")

// AutoNaiveCap is the joined size at or below which Auto runs the naive
// algorithm: materializing a join this small is cheaper than categorizing
// both relations.
const AutoNaiveCap = 2048

// ResolveAuto is the one rule behind Auto; an explicit o.Algorithm is
// returned unchanged. In order:
//
//  1. a non-strict aggregator over aggregate attributes runs naive, the
//     one exact arm (Query.Strict);
//  2. a parallel degree over 1 after the GOMAXPROCS clamp, or a non-nil
//     Emit, runs grouping, the one arm that can honor them;
//  3. a join of at most AutoNaiveCap pairs runs naive;
//  4. every larger join runs the dominator-based algorithm, which checks
//     each candidate u ⋈ v against τ(u) ⋈ τ(v) only, where grouping scans
//     a whole cell join per candidate.
//
// joined is the exact |R1 ⋈ R2| when step 3 counted it, otherwise -1. The
// count probes o.Resident's join index when one is set, building nothing;
// without one it builds one full-R2 index. q must be valid, and
// o.Resident, if set, must match it.
func ResolveAuto(q Query, o ExecOptions) (alg Algorithm, joined int) {
	switch {
	case o.Algorithm != Auto:
		return o.Algorithm, -1
	case !q.Strict():
		return Naive, -1
	case o.Emit != nil || min(o.Workers, runtime.GOMAXPROCS(0)) > 1:
		return Grouping, -1
	}
	var ix *join.Index
	if o.Resident != nil {
		ix = o.Resident.rightIx
	} else {
		ix = join.NewFullIndex(q.R1, q.R2, q.Spec.Cond)
	}
	for i := 0; i < q.R1.Len(); i++ {
		joined += len(ix.Partners(q.R1, i))
	}
	if joined <= AutoNaiveCap {
		return Naive, joined
	}
	return DominatorBased, joined
}

// cancelEvery is the verification batch size between context checks: a
// cancelled context is noticed after at most this many candidate
// dominance checks per worker. Checks against an un-cancellable context
// are a nil comparison, so the batch size only bounds cancellation
// latency, not throughput.
const cancelEvery = 16

// Exec evaluates the query on the single engine execution path shared by
// every public entry point: Run is Exec with defaults, a parallel run
// (the paper's Sec. 8 future-work item) is Workers > 1, a progressive one
// is a non-nil Emit, and Auto resolves through ResolveAuto. The context is
// checked between phases and periodically inside candidate verification
// (the dominant cost); on cancellation Exec returns ctx.Err() promptly
// with no goroutines left behind.
func Exec(ctx context.Context, q Query, o ExecOptions) (*Result, error) {
	if err := q.Validate(o.Algorithm); err != nil {
		return nil, err
	}
	if o.Resident != nil {
		if err := o.Resident.check(q); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if o.Algorithm == Auto {
		o.Algorithm, _ = ResolveAuto(q, o)
	} else if o.Algorithm != Grouping && (o.Workers > 1 || o.Emit != nil) {
		return nil, fmt.Errorf("%w (got %v)", ErrOptionConflict, o.Algorithm)
	}
	var res *Result
	var err error
	switch o.Algorithm {
	case Naive:
		res, err = runNaive(ctx, q)
	case Grouping:
		res, err = runGrouping(ctx, q, o)
	case DominatorBased:
		res, err = runDominator(ctx, q, o.Resident)
	}
	if err != nil {
		return nil, err
	}
	if o.Emit == nil || o.Algorithm != Grouping {
		join.SortPairs(res.Skyline)
		if o.Limit > 0 && len(res.Skyline) > o.Limit {
			res.Skyline = res.Skyline[:o.Limit]
		}
		compactAttrs(res.Skyline)
	}
	// Auto under a non-strict aggregator pairs Emit with the naive arm:
	// stream its finished answer.
	if o.Emit != nil && o.Algorithm != Grouping {
		for _, p := range res.Skyline {
			if !o.Emit(p) {
				break
			}
		}
		res.Skyline = nil
	}
	res.Algorithm = o.Algorithm
	res.Stats.Total = time.Since(start)
	return res, nil
}

// sink receives confirmed skyline tuples inside the grouping loop;
// returning false stops the query.
type sink func(p join.Pair) bool

// verifyCell filters candidates through a checker over chkLeft × chkRight,
// feeding the survivors to emit in candidate order. It returns false when
// emit stopped the run, and ctx.Err() when the context was cancelled
// mid-verification. Serially, each candidate is emitted the moment
// checker.dominates clears it, so Emit and Limit stop mid-cell. With an
// active pool (Workers > 1) a cell over poolChunk candidates is split into
// chunks the persistent workers pull from a shared cursor into the
// engine's keep bitset, and its survivors are emitted once the whole cell
// is verified; smaller cells stay on the coordinator — a broadcast costs
// more than poolChunk candidates. Both paths poll the context every
// cancelEvery candidates, so verifyCell never leaves work running.
func verifyCell(ctx context.Context, e *engine, candidates []join.Pair, chkLeft, chkRight []int, emit sink) (bool, error) {
	if len(candidates) == 0 {
		return true, nil
	}
	chk := e.newChecker(chkLeft, chkRight)
	if e.pool == nil || len(candidates) <= poolChunk {
		for i := range candidates {
			if i%cancelEvery == 0 && ctx.Err() != nil {
				return false, ctx.Err()
			}
			if !chk.dominates(candidates[i].Attrs) && !emit(candidates[i]) {
				return false, nil
			}
		}
		return true, nil
	}
	keep := e.keepBits(len(candidates))
	if err := e.pool.verify(ctx, chk, candidates, keep); err != nil {
		return false, err
	}
	for i := range candidates {
		if keep[i>>6]&(uint64(1)<<uint(i&63)) != 0 && !emit(candidates[i]) {
			return false, nil
		}
	}
	return true, nil
}
