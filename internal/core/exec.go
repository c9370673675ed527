package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/join"
)

// ExecOptions configures the unified execution path. The zero value runs
// Auto serially.
type ExecOptions struct {
	// Algorithm selects the evaluation strategy; Auto lets ResolveAuto
	// pick it.
	Algorithm Algorithm
	// Workers > 1 verifies candidates in parallel on the cell loop the
	// grouping and dominator-based algorithms share; any other value runs
	// serially. It conflicts with an explicit Naive (CheckWorkers). Under
	// Auto it is ignored when the rule picks naive.
	Workers int
	// Emit, when non-nil, streams each confirmed skyline tuple instead of
	// collecting the answer in Result.Skyline. Returning false stops the
	// query early (not an error), and Emit is not called again. It is
	// always called on the goroutine that called Exec, never concurrently:
	// the pool's workers only mark survivors. Emitted pairs are detached
	// from internal arenas, so callers may retain them. The grouping and
	// dominator-based algorithms emit cell by cell (yes, SS⋈SN, SN⋈SS,
	// SN⋈SN), not in (Left, Right) order: each tuple the moment it is
	// verified, except in a cell the worker pool verifies (Workers > 1 and
	// more candidates than one pool chunk), whose survivors are emitted in
	// candidate order once the whole cell is verified, so a false return
	// stops before the next cell. The naive algorithm has no cells: its
	// answer is emitted once computed, in (Left, Right) order.
	Emit Emit
	// Resident, when non-nil, supplies prebuilt per-(R1, R2, condition)
	// structures (full-R2 join index, probe orders) so
	// the engine skips their construction — the reuse the query service
	// relies on for resident relations. It must have been built by
	// NewResident over exactly the query's relations and condition;
	// otherwise Exec returns ErrStaleResident. The naive algorithm
	// materializes the full join instead of probing and ignores it.
	Resident *Resident
	// Limit > 0 caps the answer at that many tuples. The grouping and
	// dominator-based algorithms stop the run the moment the cap is
	// reached (strictly less verification work; after the cell, in a cell
	// the pool verifies, as with Emit); which members survive is
	// unspecified beyond "a subset of the skyline" — tuples are confirmed
	// in cell order, not (Left, Right) order. The naive algorithm computes
	// the full answer and truncates it after the canonical sort.
	Limit int
}

// Emit receives one confirmed skyline tuple. Returning false cancels the
// query; the run then returns with whatever work was done. Streaming
// addresses the naive algorithm's weakness the paper calls out in Sec. 6.1:
// with join-then-compute the user waits for the whole join before seeing
// the first result, while the grouping and dominator-based algorithms can
// stream the entire SS1 ⋈ SS2 cell right after categorization and each
// "likely"/"may be" candidate as soon as its check passes.
type Emit func(p join.Pair) bool

// ErrOptionConflict is returned when a parallel degree is combined with an
// explicit naive run (see CheckWorkers). Auto never conflicts.
var ErrOptionConflict = errors.New("core: workers require the grouping or dominator-based algorithm")

// CheckWorkers is the one option rule: Workers > 1 beside an explicit
// Naive is ErrOptionConflict — the naive algorithm has no cells to verify
// in parallel. Exec applies it, and the query service applies it before
// any cache lookup, so accept/reject never depends on cache state.
func CheckWorkers(alg Algorithm, workers int) error {
	if workers > 1 && alg == Naive {
		return fmt.Errorf("%w (got %v)", ErrOptionConflict, alg.Token())
	}
	return nil
}

// AutoNaiveCap is the joined size at or below which Auto runs the naive
// algorithm: materializing a join this small is cheaper than categorizing
// both relations.
const AutoNaiveCap = 2048

// ResolveAuto is the one rule behind Auto; an explicit o.Algorithm is
// returned unchanged. In order:
//
//  1. a non-strict aggregator over aggregate attributes runs naive, the
//     one exact arm (Query.Strict);
//  2. a join of at most AutoNaiveCap pairs runs naive;
//  3. every larger join runs the dominator-based algorithm, which checks
//     each candidate u ⋈ v against τ(u) ⋈ τ(v) only, where grouping scans
//     a whole cell join per candidate.
//
// Workers, Emit and Limit do not enter the rule: every arm honours Emit
// and Limit, and an Auto run that picks naive ignores Workers.
// joined is the exact |R1 ⋈ R2| when step 2 counted it, otherwise -1. The
// count probes o.Resident's join index when one is set, building nothing;
// without one it builds one full-R2 index. q must be valid, and
// o.Resident, if set, must match it.
func ResolveAuto(q Query, o ExecOptions) (alg Algorithm, joined int) {
	switch {
	case o.Algorithm != Auto:
		return o.Algorithm, -1
	case !q.Strict():
		return Naive, -1
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
// is a non-nil Emit, and Auto resolves through ResolveAuto. The grouping
// and dominator-based algorithms run one cell loop (runCells). The context
// is checked between phases and periodically inside candidate
// verification (the dominant cost); on cancellation Exec returns
// ctx.Err() promptly with no goroutines left behind. Every arm collects
// its answer into a non-nil slice, even an empty one; with Emit,
// Result.Skyline is nil.
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
	if err := CheckWorkers(o.Algorithm, o.Workers); err != nil {
		return nil, err
	}
	start := time.Now()
	o.Algorithm, _ = ResolveAuto(q, o)
	var res *Result
	var err error
	if o.Algorithm == Naive {
		res, err = runNaive(ctx, q)
	} else {
		res, err = runCells(ctx, q, o)
	}
	if err != nil {
		return nil, err
	}
	if o.Emit == nil || o.Algorithm == Naive {
		join.SortPairs(res.Skyline)
		if o.Limit > 0 && len(res.Skyline) > o.Limit {
			res.Skyline = res.Skyline[:o.Limit]
		}
		compactAttrs(res.Skyline)
	}
	if o.Emit != nil {
		// The cell arms emitted as they went and collected nothing; the
		// naive algorithm has no cells, so its finished answer streams
		// here.
		for _, p := range res.Skyline {
			if !o.Emit(p) {
				break
			}
		}
		res.Skyline = nil
	} else if res.Skyline == nil {
		res.Skyline = []join.Pair{}
	}
	res.Algorithm = o.Algorithm
	res.Stats.Total = time.Since(start)
	return res, nil
}

// sink receives confirmed skyline tuples inside the cell loop; returning
// false stops the query.
type sink func(p join.Pair) bool

// targetsFn returns the lists a joined vector is checked against: an R1
// list in probe order and a checker index over R2. Grouping returns one
// fixed pair per cell; every other check returns τ(u) and τ(v), keyed by
// the vector's local sub-vectors (targetSets.of).
type targetsFn func(cand []float64) (left []int, ix *join.Index)

// verifyCell filters candidates, each through a checker over its targets,
// feeding the survivors to emit in candidate order. It returns false when
// emit stopped the run, and ctx.Err() when the context was cancelled
// mid-verification. Serially, each candidate is emitted the moment
// checker.dominates clears it, so Emit and Limit stop mid-cell. With an
// active pool (Workers > 1) a cell over poolChunk candidates is split into
// chunks the persistent workers pull from a shared cursor into the
// engine's keep bitset, and its survivors are emitted once the whole cell
// is verified; smaller cells stay on the coordinator — a broadcast costs
// more than poolChunk candidates. Before a cell goes to the pool, targets
// is called for every candidate on the coordinator, so every lazily built
// list exists and the workers only read. Both paths poll the context every
// cancelEvery candidates, so verifyCell never leaves work running.
func verifyCell(ctx context.Context, e *engine, candidates []join.Pair, targets targetsFn, emit sink) (bool, error) {
	if e.pool == nil || len(candidates) <= poolChunk {
		chk := &checker{e: e}
		for i, p := range candidates {
			if i%cancelEvery == 0 && ctx.Err() != nil {
				return false, ctx.Err()
			}
			chk.use(targets(p.Attrs))
			if !chk.dominates(p.Attrs) && !emit(p) {
				return false, nil
			}
		}
		return true, nil
	}
	for _, p := range candidates {
		targets(p.Attrs)
	}
	keep := e.keepBits(len(candidates))
	if err := e.pool.verify(ctx, targets, candidates, keep); err != nil {
		return false, err
	}
	for i := range candidates {
		if keep[i>>6]&(uint64(1)<<uint(i&63)) != 0 && !emit(candidates[i]) {
			return false, nil
		}
	}
	return true, nil
}
