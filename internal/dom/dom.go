// Package dom provides the dominance-comparison kernels shared by every
// layer of the KSJQ implementation: full (Pareto) dominance, k-dominance,
// and the one-pass counting primitive (LeqLess) both directions of a
// k-dominance test derive from.
//
// Throughout the repository a lower attribute value is preferred, matching
// Sec. 2.1 of the paper ("without loss of generality, the preference is
// assumed to be less than").
package dom

// Dominates reports whether a fully dominates b: a is preferred-or-equal on
// every attribute and strictly preferred on at least one.
func Dominates(a, b []float64) bool {
	strict := false
	for i, av := range a {
		switch {
		case av > b[i]:
			return false
		case av < b[i]:
			strict = true
		}
	}
	return strict
}

// KDominates reports whether a k-dominates b: a is preferred-or-equal on at
// least k attributes and strictly preferred on at least one attribute
// (Sec. 2.2). This is equivalent to the subset formulation of Chan et al.:
// any strictly-better attribute is also a <=-attribute, so it can always be
// placed inside a k-sized subset of the <=-attributes.
//
// The loop is branch-minimized: the two comparisons compile to flag-setting
// increments, and the reachability bound (even winning every remaining
// attribute cannot reach k <=-positions) is re-checked only at positions a
// just lost — a won position cannot newly violate a bound that held before
// it.
func KDominates(a, b []float64, k int) bool {
	leq, less := 0, 0
	d := len(a)
	for i, av := range a {
		bv := b[i]
		if av <= bv {
			leq++
		} else if leq+(d-i-1) < k {
			return false
		}
		if av < bv {
			less++
		}
	}
	return leq >= k && less > 0
}

// LeqLess counts, in one pass, the positions where a is preferred-or-equal
// to b and the positions where a is strictly preferred. Both k-dominance
// directions derive from the two counts (for NaN-free inputs, which the
// dataset layer guarantees): b is preferred-or-equal to a exactly where a
// is not strictly preferred to b, so count(b<=a) = d-less and
// count(b<a) = d-leq. This is the branch-minimized core of KDomCompare and
// of the two-scan window sweeps.
func LeqLess(a, b []float64) (leq, less int) {
	for i, av := range a {
		bv := b[i]
		if av <= bv {
			leq++
		}
		if av < bv {
			less++
		}
	}
	return leq, less
}

// KDomCompare classifies the k-dominance relationship between a and b in a
// single pass. It returns two booleans: whether a k-dominates b and whether
// b k-dominates a. With k <= d/2 both can be true simultaneously
// (Sec. 2.2 notes the relation is cyclic and non-transitive).
func KDomCompare(a, b []float64, k int) (abDom, baDom bool) {
	leq, less := LeqLess(a, b)
	d := len(a)
	return leq >= k && less > 0, d-less >= k && d-leq > 0
}

// Equal reports whether a and b agree on every attribute.
func Equal(a, b []float64) bool {
	for i, av := range a {
		if av != b[i] {
			return false
		}
	}
	return true
}
