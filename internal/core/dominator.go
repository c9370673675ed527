package core

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
)

// targetSets holds the inputs Algorithm 3 refines the grouping algorithm
// with: for a joined vector cand, the explicit target sets
// τ(u) = {x ∈ R1 : x ≤ u on at least k″1 local attributes} and τ(v) likewise
// over R2 — the paper's dominators ∪ augment ∪ self collapsed into one
// predicate. Every joined dominator of cand is drawn from τ(u) ⋈ τ(v), so
// checking cand against that join alone is exact, and usually far cheaper
// than the cell join grouping scans or the whole R1 ⋈ R2. It is the one
// strict whole-join check: the dominator arm's candidates, round-2 votes,
// membership probes and the maintainer's resurrections all go through of.
//
// τ(u) depends only on u's l1 local attributes, which are cand[:l1], and
// τ(v) only on cand[l1:l1+l2]; so the sets are keyed by the exact bits of
// those two sub-vectors. Equal sub-vectors have equal sets, which makes
// the key exact, lets a vector from outside the relations (a peer's
// candidate) be checked like a row's own, and shares one set between rows
// with equal locals.
//
// Sets are built on first use, at most once per key: τ(u) as an R1 list in
// probe order, τ(v) as a checker index over R2. Each set is one scan of
// its relation in probe order — R1 by ascending attribute sum (the
// engine's, or the resident's, full probe order), R2 in rightProbeOrder of
// all rows, built once per run with the first right set. Filtering a
// stable sum-sorted order keeps exactly the stable sum sort of the
// filtered rows, so no set is ever sorted and every candidate probes in
// the order sorting it would give. A lookup that hits only reads the maps
// (the key is built in the caller's stack buffer), so pool workers share
// the sets once the coordinator has built them.
type targetSets struct {
	e      *engine
	lefts  map[string][]int
	rights map[string]*join.Index
	order2 []int
	built  time.Duration // time spent building sets and their indexes
}

func newTargetSets(e *engine) *targetSets {
	return &targetSets{e: e, lefts: map[string][]int{}, rights: map[string]*join.Index{}}
}

// of is the targetsFn of every strict whole-join check: τ(u) and τ(v) for
// the joined vector cand.
func (t *targetSets) of(cand []float64) ([]int, *join.Index) {
	l1, l2 := t.e.l1, t.e.l2
	return t.left(cand[:l1]), t.right(cand[l1 : l1+l2])
}

// left returns τ(u) over R1 in probe order, for u's local sub-vector.
func (t *targetSets) left(local []float64) []int {
	var buf [64]byte
	key := bitsKey(buf[:0], local)
	if s, ok := t.lefts[string(key)]; ok {
		return s
	}
	t0 := time.Now()
	e := t.e
	s := targetSet(e.q.R1, e.allLeftOrder(), local, e.k1pp)
	t.lefts[string(key)] = s
	t.built += time.Since(t0)
	return s
}

// right returns the checker index over τ(v), for v's local sub-vector.
func (t *targetSets) right(local []float64) *join.Index {
	var buf [64]byte
	key := bitsKey(buf[:0], local)
	if ix, ok := t.rights[string(key)]; ok {
		return ix
	}
	t0 := time.Now()
	e := t.e
	if t.order2 == nil {
		t.order2 = e.rightProbeOrder(allIndices(e.q.R2.Len()))
	}
	ix := e.rightIndex(targetSet(e.q.R2, t.order2, local, e.k2pp))
	t.rights[string(key)] = ix
	t.built += time.Since(t0)
	return ix
}

// bitsKey appends the exact bits of v to dst: a target-set map key.
func bitsKey(dst []byte, v []float64) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// targetSet returns the target set τ(u) (Def 5) of the local sub-vector
// local — every x that could be the same-side component of a joined
// dominator of a tuple built from u — with its rows in the order they
// appear in order.
func targetSet(r *dataset.Relation, order []int, local []float64, kpp int) []int {
	var out []int
	for _, x := range order {
		if localLeqAtLeast(r.Attrs(x), local, len(local), kpp) {
			out = append(out, x)
		}
	}
	return out
}
