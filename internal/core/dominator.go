package core

import (
	"context"
	"time"

	"repro/internal/join"
)

// runDominator implements Algorithm 3. It refines the grouping algorithm by
// materializing, for every SS/SN base tuple u, its explicit target set
// τ(u) = {x : x ≤ u on at least k″ local attributes} — the paper's
// dominators ∪ augment ∪ self collapsed into one predicate. Each candidate
// joined tuple u ⋈ v is then verified only against τ(u) ⋈ τ(v), which is
// usually far smaller than the full join the grouping algorithm scans for
// "may be" tuples; the price is the time and memory to build the sets.
func runDominator(ctx context.Context, q Query, res *Resident) (*Result, error) {
	st := Stats{}
	e := newEngineResident(q, &st, res)

	// Phase 1: categorization.
	t0 := time.Now()
	k1p, k2p := q.KPrimes()
	c1 := Categorize(q.R1, k1p, e.cond, Left)
	c2 := Categorize(q.R2, k2p, e.cond, Right)
	st.GroupingTime = time.Since(t0)
	recordSizes(&st, c1, c2)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: dominator (target) sets for every SS and SN tuple.
	t0 = time.Now()
	dom1 := make(map[int][]int, len(c1.SS)+len(c1.SN))
	for _, u := range c1.SS {
		dom1[u] = targetSet(q.R1, u, e.l1, e.k1pp)
	}
	for _, u := range c1.SN {
		dom1[u] = targetSet(q.R1, u, e.l1, e.k1pp)
	}
	dom2 := make(map[int][]int, len(c2.SS)+len(c2.SN))
	for _, v := range c2.SS {
		dom2[v] = targetSet(q.R2, v, e.l2, e.k2pp)
	}
	for _, v := range c2.SN {
		dom2[v] = targetSet(q.R2, v, e.l2, e.k2pp)
	}
	st.DominatorTime = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: join the surviving cells.
	t0 = time.Now()
	yes := e.pairs(c1.SS, c2.SS)
	cells := [...][]join.Pair{e.pairs(c1.SS, c2.SN), e.pairs(c1.SN, c2.SS), e.pairs(c1.SN, c2.SN)}
	st.JoinTime = time.Since(t0)
	for _, cell := range cells {
		st.Candidates += len(cell)
	}

	// Phase 4: verify each candidate against the join of its components'
	// dominator sets. Many candidates share a component — u ⋈ v and u ⋈ v'
	// reuse τ(u) — so the checker inputs are cached per tuple: each τ(u) is
	// sum-sorted once and each τ(v) indexed once instead of once per
	// candidate, and one checker is reset onto each pair's lists (its
	// partner list resolved into the engine scratch) instead of allocated
	// per pair. The probe order and test sequence per candidate are
	// unchanged.
	t0 = time.Now()
	sorted1 := make(map[int][]int, len(dom1))
	ix2 := make(map[int]*join.Index, len(dom2))
	chk := &checker{e: e}
	dominated := func(p join.Pair) bool {
		left, ok := sorted1[p.Left]
		if !ok {
			left = e.leftProbeOrder(dom1[p.Left])
			sorted1[p.Left] = left
		}
		ix, ok := ix2[p.Right]
		if !ok {
			ix = e.checkerRightIndex(dom2[p.Right])
			ix2[p.Right] = ix
		}
		chk.reset(left, ix)
		return chk.dominates(p.Attrs)
	}
	skyline := make([]join.Pair, 0, len(yes))
	if e.a >= 2 {
		for n, p := range yes {
			if n%cancelEvery == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !dominated(p) {
				skyline = append(skyline, p)
			}
		}
	} else {
		skyline = append(skyline, yes...)
		st.YesEmitted = len(yes)
	}
	for _, cell := range cells {
		for n, p := range cell {
			if n%cancelEvery == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !dominated(p) {
				skyline = append(skyline, p)
			}
		}
	}
	st.RemainingTime = time.Since(t0)

	return &Result{Skyline: skyline, Stats: st}, nil
}
