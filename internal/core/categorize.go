package core

import (
	"cmp"
	"slices"

	"repro/internal/dataset"
	"repro/internal/dom"
	"repro/internal/join"
	"repro/internal/kdominant"
)

// Category is a base tuple's class per Definitions 1-3.
type Category int8

const (
	// SS tuples are k′-dominant skylines in the whole relation.
	SS Category = iota
	// SN tuples are k′-dominant only within their join group.
	SN
	// NN tuples are k′-dominated within their own group.
	NN
)

// String returns the paper's two-letter label.
func (c Category) String() string {
	switch c {
	case SS:
		return "SS"
	case SN:
		return "SN"
	case NN:
		return "NN"
	default:
		return "??"
	}
}

// Side distinguishes the two join operands; group semantics for
// non-equality conditions depend on which side a relation is on (Sec 6.6).
type Side int

const (
	// Left is the R1 side of the join.
	Left Side = iota
	// Right is the R2 side.
	Right
)

// Categorization is the SS/SN/NN split of one base relation.
type Categorization struct {
	// Cat maps tuple index to its category.
	Cat []Category
	// SS, SN, NN list the tuple indices per category, ascending.
	SS, SN, NN []int
	// KPrime is the threshold used (k′1 or k′2).
	KPrime int
}

// covers reports whether tuple x can join every partner tuple u can: x is
// "in u's group" for the purposes of Definitions 1-3, extended to
// non-equality conditions per Sec. 6.6. x and u are row indices into r.
//
// For equality joins this is key equality — one integer comparison of
// interned symbols, both rows living in the same relation. For a band
// condition such as R1.band < R2.band, any x with x.band <= u.band joins
// every partner of u (left side); on the right side the inequality flips.
// For the Cartesian product every tuple covers every other (Sec. 6.5).
func covers(cond join.Condition, side Side, r *dataset.Relation, x, u int) bool {
	switch cond {
	case join.Equality:
		return r.KeyID(x) == r.KeyID(u)
	case join.Cross:
		return true
	case join.BandLess, join.BandLessEq:
		if side == Left {
			return r.Band(x) <= r.Band(u)
		}
		return r.Band(x) >= r.Band(u)
	case join.BandGreater, join.BandGreaterEq:
		if side == Left {
			return r.Band(x) >= r.Band(u)
		}
		return r.Band(x) <= r.Band(u)
	default:
		return false
	}
}

// Categorize splits relation r into SS, SN and NN with respect to
// kPrime-dominance over the base attribute vectors, using the join
// condition's group semantics for the given side.
func Categorize(r *dataset.Relation, kPrime int, cond join.Condition, side Side) Categorization {
	pts := basePoints(r)
	n := r.Len()
	c := Categorization{Cat: make([]Category, n), KPrime: kPrime}

	// Globally k′-dominant tuples form SS.
	inSS := make([]bool, n)
	for _, i := range kdominant.TwoScan(pts, kPrime) {
		inSS[i] = true
	}

	// Tuples dominated within their own group form NN; a global skyline
	// tuple is never group-dominated, so the two tests are disjoint.
	groupDominated := make([]bool, n)
	switch cond {
	case join.Equality:
		// Counting-sort tuple indices by interned key symbol so every join
		// group is one contiguous run — group iteration needs no maps or
		// string hashing, and within a group the natural tuple order is
		// preserved. Group *order* differs from a string sort, but groups
		// are disjoint so the categorization is unaffected.
		perm := groupByKey(r)
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && r.KeyID(perm[hi]) == r.KeyID(perm[lo]) {
				hi++
			}
			group := perm[lo:hi]
			for _, i := range group {
				groupDominated[i] = true
			}
			for _, i := range kdominant.TwoScanSubset(pts, group, kPrime) {
				groupDominated[i] = false
			}
			lo = hi
		}
	case join.Cross:
		// Single group: group-dominated iff not globally dominant.
		for i := 0; i < n; i++ {
			groupDominated[i] = !inSS[i]
		}
	default:
		// Band conditions: the "group" of u is the set of tuples covering
		// u; scan each tuple against its coverers.
		for i := 0; i < n; i++ {
			if inSS[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if j == i || !covers(cond, side, r, j, i) {
					continue
				}
				if dom.KDominates(pts[j], pts[i], kPrime) {
					groupDominated[i] = true
					break
				}
			}
		}
	}

	var count [3]int
	for i := 0; i < n; i++ {
		switch {
		case inSS[i]:
			c.Cat[i] = SS
		case groupDominated[i]:
			c.Cat[i] = NN
		default:
			c.Cat[i] = SN
		}
		count[c.Cat[i]]++
	}
	// The lists are sized exactly: a resident holds them across runs.
	lists := [3][]int{make([]int, 0, count[SS]), make([]int, 0, count[SN]), make([]int, 0, count[NN])}
	for i, cat := range c.Cat {
		lists[cat] = append(lists[cat], i)
	}
	c.SS, c.SN, c.NN = lists[SS], lists[SN], lists[NN]
	return c
}

// groupByKey returns r's row indices ordered by key symbol, rows of one
// key in natural order: a counting sort over the symbol space, which is
// what a stable sort on KeyID computes. Where the symbol space is sparse
// against the rows (join.DenseKeys, the rule the equality index's layout
// follows too), the rows are sorted on (key, row) instead — the same
// total order.
func groupByKey(r *dataset.Relation) []int {
	n := r.Len()
	perm := make([]int, n)
	nsyms := r.Symbols().Len()
	if !join.DenseKeys(nsyms, n) {
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int {
			if c := cmp.Compare(r.KeyID(a), r.KeyID(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return perm
	}
	start := make([]int, nsyms+1)
	for i := 0; i < n; i++ {
		start[r.KeyID(i)+1]++
	}
	for k := 1; k <= nsyms; k++ {
		start[k] += start[k-1]
	}
	for i := 0; i < n; i++ {
		k := r.KeyID(i)
		perm[start[k]] = i
		start[k]++
	}
	return perm
}

// localLeqAtLeast reports whether x is preferred-or-equal to u on at least
// kpp of the first `local` attributes: the target-set predicate (Def 5,
// generalized to the aggregate variant; see the package comment).
func localLeqAtLeast(x, u []float64, local, kpp int) bool {
	leq := 0
	for i := 0; i < local; i++ {
		if x[i] <= u[i] {
			leq++
		}
		if leq+(local-i-1) < kpp {
			return false
		}
	}
	return leq >= kpp
}
