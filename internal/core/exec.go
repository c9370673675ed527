package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/join"
)

// ExecOptions configures the unified execution path. The zero value runs
// the naive algorithm serially; callers normally set Algorithm.
type ExecOptions struct {
	// Algorithm selects the evaluation strategy.
	Algorithm Algorithm
	// Workers > 1 verifies candidates in parallel on the grouping
	// algorithm's execution path; any other value runs serially.
	Workers int
	// Emit, when non-nil, streams each confirmed skyline tuple instead of
	// collecting the answer in Result.Skyline. Returning false stops the
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
// algorithm that cannot honor them (Workers/Emit require Grouping).
var ErrOptionConflict = errors.New("core: workers and emit require the grouping algorithm")

// cancelEvery is the verification batch size between context checks: a
// cancelled context is noticed after at most this many candidate
// dominance checks per worker. Checks against an un-cancellable context
// are a nil comparison, so the batch size only bounds cancellation
// latency, not throughput.
const cancelEvery = 16

// Exec evaluates the query on the single engine execution path shared by
// every public entry point: Run is Exec with defaults, a parallel run
// (the paper's Sec. 8 future-work item) is Workers > 1, a progressive one
// is a non-nil Emit. The context is checked
// between phases and periodically inside candidate verification (the
// dominant cost); on cancellation Exec returns ctx.Err() promptly with no
// goroutines left behind.
func Exec(ctx context.Context, q Query, o ExecOptions) (*Result, error) {
	if err := q.Validate(o.Algorithm); err != nil {
		return nil, err
	}
	if o.Algorithm != Grouping && (o.Workers > 1 || o.Emit != nil) {
		return nil, fmt.Errorf("%w (got %v)", ErrOptionConflict, o.Algorithm)
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
	if o.Emit == nil {
		join.SortPairs(res.Skyline)
		if o.Limit > 0 && len(res.Skyline) > o.Limit {
			res.Skyline = res.Skyline[:o.Limit]
		}
		compactAttrs(res.Skyline)
	}
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
