package core

import (
	"context"
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
)

// runDominator implements Algorithm 3. It refines the grouping algorithm by
// materializing, for every SS/SN base tuple u some candidate is built from,
// its explicit target set τ(u) = {x : x ≤ u on at least k″ local
// attributes} — the paper's dominators ∪ augment ∪ self collapsed into one
// predicate. Each candidate joined tuple u ⋈ v is then verified only
// against τ(u) ⋈ τ(v), which is usually far smaller than the full join the
// grouping algorithm scans for "may be" tuples; the price is the time and
// memory to build the sets, which targetSets keeps to one relation scan
// per component a candidate actually uses.
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

	// Phase 2: join the surviving cells.
	t0 = time.Now()
	yes := e.pairs(c1.SS, c2.SS)
	cells := [...][]join.Pair{e.pairs(c1.SS, c2.SN), e.pairs(c1.SN, c2.SS), e.pairs(c1.SN, c2.SN)}
	st.JoinTime = time.Since(t0)
	for _, cell := range cells {
		st.Candidates += len(cell)
	}

	// Phase 3: verify each candidate against the join of its components'
	// target sets. Many candidates share a component — u ⋈ v and u ⋈ v'
	// reuse τ(u) — so each set is built once, on first use, and one checker
	// is reset onto each pair's lists (its partner list resolved into the
	// engine scratch) instead of allocated per pair. Building the sets is
	// charged to DominatorTime, the checks to RemainingTime.
	t0 = time.Now()
	ts := newTargetSets(e)
	chk := &checker{e: e}
	dominated := func(p join.Pair) bool {
		chk.reset(ts.left(p.Left), ts.right(p.Right))
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
	st.DominatorTime = ts.built
	st.RemainingTime = time.Since(t0) - ts.built

	return &Result{Skyline: skyline, Stats: st}, nil
}

// targetSets builds the dominator arm's checker inputs on first use, at
// most once per component: τ(u) as an R1 list in probe order, τ(v) as a
// checker index over R2. Each set is one scan of its relation in probe
// order — R1 by ascending attribute sum (the engine's, or the resident's,
// full probe order), R2 in rightProbeOrder of all rows, built once per run
// with the first right set. Filtering a stable sum-sorted order keeps
// exactly the stable sum sort of the filtered rows, so no set is ever
// sorted and every candidate probes in the order sorting it would give.
type targetSets struct {
	e      *engine
	lefts  map[int][]int
	rights map[int]*join.Index
	order2 []int
	built  time.Duration // time spent building sets and their indexes
}

func newTargetSets(e *engine) *targetSets {
	return &targetSets{e: e, lefts: map[int][]int{}, rights: map[int]*join.Index{}}
}

// left returns τ(u) over R1 in probe order.
func (t *targetSets) left(u int) []int {
	if s, ok := t.lefts[u]; ok {
		return s
	}
	t0 := time.Now()
	e := t.e
	s := targetSet(e.q.R1, e.allLeftOrder(), u, e.l1, e.k1pp)
	t.lefts[u] = s
	t.built += time.Since(t0)
	return s
}

// right returns the checker index over τ(v).
func (t *targetSets) right(v int) *join.Index {
	if ix, ok := t.rights[v]; ok {
		return ix
	}
	t0 := time.Now()
	e := t.e
	if t.order2 == nil {
		t.order2 = e.rightProbeOrder(allIndices(e.q.R2.Len()))
	}
	ix := e.rightIndex(targetSet(e.q.R2, t.order2, v, e.l2, e.k2pp))
	t.rights[v] = ix
	t.built += time.Since(t0)
	return ix
}

// targetSet returns the target set τ(u) (Def 5) — every x that could be the
// same-side component of a joined dominator of a tuple built from u — with
// its rows in the order they appear in order.
func targetSet(r *dataset.Relation, order []int, u, local, kpp int) []int {
	var out []int
	ua := r.Attrs(u)
	for _, x := range order {
		if localLeqAtLeast(r.Attrs(x), ua, local, kpp) {
			out = append(out, x)
		}
	}
	return out
}
