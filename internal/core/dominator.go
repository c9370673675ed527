package core

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
)

// targetSets holds the inputs Algorithm 3 refines the grouping algorithm
// with: for every SS/SN base tuple u some candidate is built from, its
// explicit target set τ(u) = {x : x ≤ u on at least k″ local attributes} —
// the paper's dominators ∪ augment ∪ self collapsed into one predicate.
// Each candidate u ⋈ v is then verified only against τ(u) ⋈ τ(v), which is
// usually far smaller than the cell join grouping scans; the price is the
// time and memory to build the sets, kept to one relation scan per
// component a candidate actually uses.
//
// Sets are built on first use, at most once per component: τ(u) as an R1
// list in probe order, τ(v) as a checker index over R2. Each set is one
// scan of its relation in probe order — R1 by ascending attribute sum (the
// engine's, or the resident's, full probe order), R2 in rightProbeOrder of
// all rows, built once per run with the first right set. Filtering a stable sum-sorted order keeps
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

// of is the dominator arm's targetsFn: τ(u) and τ(v) for the candidate
// u ⋈ v.
func (t *targetSets) of(p join.Pair) ([]int, *join.Index) {
	return t.left(p.Left), t.right(p.Right)
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
