package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/join"
)

// runCells implements Algorithms 2 and 3 on the unified execution path:
// one loop over Table 5's cells, the two arms differing only in what each
// candidate is checked against. Both base relations are categorized into
// SS/SN/NN; Table 5 then decides each joined cell's fate:
//
//   - SS1 ⋈ SS2 ("yes") is emitted without checks (verified like the
//     other cells when a ≥ 2; see the package comment),
//   - any cell containing NN ("no") is pruned without even joining,
//   - SS1 ⋈ SN2, SN1 ⋈ SS2 ("likely") and SN1 ⋈ SN2 ("may be") are
//     verified candidate by candidate.
//
// Grouping (Algorithm 2) checks every candidate of a cell against one
// fixed join: A1 ⋈ R2 for SS1 ⋈ SN2, R1 ⋈ A2 for SN1 ⋈ SS2, the full
// R1 ⋈ R2 for SN1 ⋈ SN2 and A1 ⋈ A2 for the verified yes cell, where A is
// the augmented SS target union. The dominator-based algorithm
// (Algorithm 3) skips the augmentation and checks each candidate u ⋈ v
// against τ(u) ⋈ τ(v) only (see targetSets), which is usually far
// smaller.
//
// For Cartesian products (Sec 6.5) the SN sets are empty, so both arms
// degenerate to emitting SS1 × SS2 — exactly the paper's fast path.
//
// The one loop serves every execution mode: workers > 1 categorizes the
// relations concurrently and runs one persistent work-stealing pool that
// every large cell's verification is chunked onto; a non-nil emit streams
// each tuple the moment its cell confirms it (the "yes" cell right after
// categorization — the progressiveness argument of Sec. 6.1) instead of
// collecting the answer; a limit stops the run once that many tuples are
// confirmed.
func runCells(ctx context.Context, q Query, o ExecOptions) (*Result, error) {
	workers, emitFn, limit := o.Workers, o.Emit, o.Limit
	augment := o.Algorithm == Grouping
	st := Stats{}
	e := newEngineResident(q, &st, o.Resident)
	if workers > 1 {
		e.pool = newWorkerPool(e, workers)
		defer e.pool.close()
	}

	// Phase 1: categorization, and for grouping the target-set
	// augmentation. The two relations are independent, so the parallel
	// mode runs them concurrently. Over a resident whose table holds this
	// k, the categorization is the published one, and both arms' target
	// sets start from it too; what this run builds is published on the
	// way out, whatever the way out is.
	t0 := time.Now()
	ts := newTargetSets(e)
	defer ts.publish()
	var c1, c2 Categorization
	var a1, a2 []int
	side1 := func() {
		c1 = ts.categorization(Left)
		if augment {
			a1 = targetUnion(q.R1, c1.SS, e.l1, e.k1pp)
		}
	}
	side2 := func() {
		c2 = ts.categorization(Right)
		if augment {
			a2 = targetUnion(q.R2, c2.SS, e.l2, e.k2pp)
		}
	}
	if workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			side1()
		}()
		side2()
		wg.Wait()
	} else {
		side1()
		side2()
	}
	st.GroupingTime = time.Since(t0)
	recordSizes(&st, c1, c2)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var skyline []join.Pair
	out := sink(func(p join.Pair) bool { skyline = append(skyline, p); return true })
	if emitFn != nil {
		out = func(p join.Pair) bool { return emitFn(detach(p)) }
	}
	if limit > 0 {
		// A reached cap reads as an early stop: the run ends with exactly
		// limit confirmed tuples and skips all remaining verification.
		inner := out
		emitted := 0
		out = func(p join.Pair) bool {
			if !inner(p) {
				return false
			}
			emitted++
			return emitted < limit
		}
	}

	// Phases 2+3: materialize and verify the surviving cells in streaming
	// order. The "yes" cell is unchecked when a ≤ 1; with a ≥ 2 the
	// paper's theorem fails (see the package comment) and it is verified
	// like any other cell.
	cells := []struct {
		left, right []int // candidate cell
		byA1, byA2  bool  // grouping checks against A1 (else R1) ⋈ A2 (else R2)
		yes         bool
	}{
		{c1.SS, c2.SS, true, true, true},
		{c1.SS, c2.SN, true, false, false},
		{c1.SN, c2.SS, false, true, false},
		{c1.SN, c2.SN, false, false, false},
	}
	// Grouping's fixed checker lists. A1 feeds the yes cell and SS1 ⋈ SN2,
	// A2 the yes cell and SN1 ⋈ SS2, so A1's probe order and A2's index are
	// each built at most once per run, by the first cell that checks
	// against it; R1's order and R2's index are the engine's own.
	var a1Order []int
	var a2Ix *join.Index
	groupingTargets := func(byA1, byA2 bool) targetsFn {
		left, ix := e.allLeftOrder(), e.rightAllIndex()
		if byA1 {
			if a1Order == nil {
				a1Order = e.leftProbeOrder(a1)
			}
			left = a1Order
		}
		if byA2 {
			if a2Ix == nil {
				a2Ix = e.checkerRightIndex(a2)
			}
			ix = a2Ix
		}
		return func([]float64) ([]int, *join.Index) { return left, ix }
	}
	for _, cell := range cells {
		t0 = time.Now()
		candidates := e.pairs(cell.left, cell.right)
		st.JoinTime += time.Since(t0)
		if cell.yes && e.a < 2 {
			// Unchecked emission is still the whole answer for Cartesian
			// products (no SN cells), so it polls the context like the
			// verification loops do. The yes cell comes first, so a stop
			// here leaves no verification or target-set time to account.
			st.YesEmitted = len(candidates)
			for n, p := range candidates {
				if n%cancelEvery == 0 && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if !out(p) {
					return &Result{Skyline: skyline, Stats: st}, nil
				}
			}
			continue
		}
		if len(candidates) == 0 {
			continue
		}
		if !cell.yes {
			st.Candidates += len(candidates)
		}
		t0 = time.Now()
		targets := ts.of
		if augment {
			targets = groupingTargets(cell.byA1, cell.byA2)
		}
		// A limit stops verification the moment the cap is reached:
		// mid-cell serially, after the cell for a cell the pool verified
		// (like Emit).
		more, err := verifyCell(ctx, e, candidates, targets, out)
		st.RemainingTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	// Building the target sets is charged to DominatorTime, the checks to
	// RemainingTime.
	st.DominatorTime = ts.built
	st.RemainingTime -= ts.built
	return &Result{Skyline: skyline, Stats: st}, nil
}

func recordSizes(st *Stats, c1, c2 Categorization) {
	st.SS1, st.SN1, st.NN1 = len(c1.SS), len(c1.SN), len(c1.NN)
	st.SS2, st.SN2, st.NN2 = len(c2.SS), len(c2.SN), len(c2.NN)
}
