package core

import (
	"cmp"
	"slices"

	"repro/internal/dataset"
	"repro/internal/join"
)

// engine bundles the per-query state shared by the optimized algorithms:
// schema geometry, the aggregator, and lazily-built join indexes reused by
// every cell enumeration and domination check of the query.
type engine struct {
	q          Query
	cond       join.Condition
	agg        join.Aggregator
	l1, l2, a  int
	d1, d2     int
	k1pp, k2pp int // k″1, k″2: target-set thresholds over local attributes
	// at1/at2 are the relations' flat row-major attribute columns; row i of
	// R1 is at1[i*d1 : (i+1)*d1]. The checker's inner loops stride them
	// directly — contiguous scans, no per-row slice-header chasing.
	at1, at2 []float64
	// isSum marks the built-in Sum aggregator, letting the domination test
	// inline the addition instead of an indirect call per aggregate
	// attribute.
	isSum bool
	stats *Stats
	// allRightIx and allLeftSorted cache the full-R2 join index and the
	// sum-sorted full-R1 probe order; each is built at most once per engine
	// (on first full-list use) and read-only afterwards, so checkers
	// sharing them across goroutines is safe.
	allRightIx    *join.Index
	allLeftSorted []int
	// res is the resident the engine was seeded from, nil if none: its
	// k-dependent table backs the run's target sets.
	res *Resident
	// kt caches the R1→R2 key-symbol translation shared by every equality
	// index this engine builds (one per cell, one per dominator-set
	// checker); built once on first use, read-only afterwards.
	kt *join.KeyTrans
	// memoLeft/memoLeftSorted and memoRight/memoRightIx remember the last
	// subset probe order and subset checker index built, keyed by slice
	// identity. The grouping cells reuse the augmented target lists across
	// cells (A1 appears in two cells' checkers, as does A2), so each is
	// sorted/indexed once per run instead of once per cell.
	memoLeft, memoLeftSorted []int
	memoRight                []int
	memoRightIx              *join.Index
	// scratch holds the per-run verification buffers (the pool's keep
	// bitset, the checker's partner list) reused across cells, so repeated
	// cells allocate nothing.
	scratch verifyScratch
	// pool is the persistent work-stealing worker pool, spawned once per
	// Exec run when Workers > 1 and shared by every cell's verification.
	pool *workerPool
}

// verifyScratch is the engine-owned scratch reused by every cell's
// verification: the pool's keep bitset and the backing arrays of the
// checker's partner list.
type verifyScratch struct {
	keep     []uint64
	lefts    []int32
	partners [][]int32
}

// keepBits returns the scratch keep bitset sized for n candidates with
// every bit set (all candidates alive).
func (e *engine) keepBits(n int) []uint64 {
	words := (n + 63) / 64
	if cap(e.scratch.keep) < words {
		e.scratch.keep = make([]uint64, words, words+words/2)
	}
	keep := e.scratch.keep[:words]
	for i := range keep {
		keep[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		keep[words-1] = uint64(1)<<rem - 1
	}
	return keep
}

// sameIDs reports whether a and b are the same index list by slice
// identity (same backing array start and length) — the memo key for
// per-run subset reuse.
func sameIDs(a, b []int) bool {
	return len(a) != 0 && len(a) == len(b) && &a[0] == &b[0]
}

// keyTrans returns the engine's shared R1→R2 key translation (equality
// joins only), building it on first use.
func (e *engine) keyTrans() *join.KeyTrans {
	if e.cond != join.Equality {
		return nil
	}
	if e.kt == nil {
		e.kt = join.NewKeyTrans(e.q.R1, e.q.R2)
	}
	return e.kt
}

func newEngine(q Query, stats *Stats) *engine {
	e := &engine{
		q:     q,
		cond:  q.Spec.Cond,
		agg:   q.aggregator(),
		l1:    q.R1.Local,
		l2:    q.R2.Local,
		a:     q.R1.Agg,
		d1:    q.R1.D(),
		d2:    q.R2.D(),
		at1:   q.R1.FlatAttrs(),
		at2:   q.R2.FlatAttrs(),
		stats: stats,
	}
	e.isSum = join.IsSum(e.agg)
	e.k1pp, e.k2pp = q.KDoublePrimes()
	return e
}

// rightProbeOrder returns the right list in the order the index should
// hold it: ascending attribute sum for equality buckets and Cross (so
// strong dominators are probed first), unchanged for band conditions —
// the index re-sorts those by Band and would discard a sum ordering.
func (e *engine) rightProbeOrder(right []int) []int {
	switch e.cond {
	case join.Equality, join.Cross:
		return sortBySum(e.q.R2, right)
	default:
		return right
	}
}

// rightAllIndex returns the query-wide index over all of R2 in probe
// priority, building it on first use.
func (e *engine) rightAllIndex() *join.Index {
	if e.allRightIx == nil {
		e.allRightIx = join.NewIndexTrans(e.q.R1, e.q.R2, e.rightProbeOrder(allIndices(e.q.R2.Len())), e.cond, e.keyTrans())
	}
	return e.allRightIx
}

// rightIndex returns a join index over the given R2 subset, reusing the
// cached full-relation index when the subset is all of R2. (Index lists
// never repeat tuples, so matching length implies the full set.)
func (e *engine) rightIndex(right []int) *join.Index {
	if len(right) == e.q.R2.Len() {
		return e.rightAllIndex()
	}
	return join.NewIndexTrans(e.q.R1, e.q.R2, right, e.cond, e.keyTrans())
}

// pairs materializes the join-compatible pairs between the given index
// lists of R1 and R2. All attribute vectors of one call share a single
// arena allocation (see join.Materialize).
func (e *engine) pairs(left, right []int) []join.Pair {
	return join.Materialize(e.q.R1, e.q.R2, left, e.rightIndex(right), e.agg)
}

// countPairs returns the number of join-compatible pairs between the index
// lists without materializing them (used by the find-k bounds).
func (e *engine) countPairs(left, right []int) int {
	if e.cond == join.Cross {
		return len(left) * len(right)
	}
	return e.rightIndex(right).CountPairs(e.q.R1, left)
}

// forEachPair calls fn for every join-compatible (i, j) with i from left
// and j from right, stopping early when fn returns true. It reports whether
// fn stopped the iteration.
func (e *engine) forEachPair(left, right []int, fn func(i, j int) bool) bool {
	return e.rightIndex(right).ForEachPair(e.q.R1, left, fn)
}

// checker answers "is this joined attribute vector k-dominated by any
// join-compatible pair drawn from my left × right index lists?". The left
// list is probed by ascending attribute sum so strong dominators are tried
// first (SFS-style early exit; any order is correct). Construction
// resolves every left's join partners within the right list once, through
// a join.Index (one equality lookup or band binary search each), and keeps
// only the lefts that have any: dominates never looks a partner list up
// again, nor visits a left that cannot pair.
//
// The list lives in the engine's scratch, so repeated checkers allocate
// nothing; a checker stays valid until its engine builds or resets the
// next one. Parallel workers each reset their own checker on their
// private engine's scratch.
type checker struct {
	e        *engine
	left     []int       // the probe-ordered list the partner list was resolved from
	ix       *join.Index // the index it was resolved through
	lefts    []int32     // R1 tuples with at least one partner, in probe order
	partners [][]int32   // partners[n]: lefts[n]'s join partners in R2
}

// allLeftOrder returns all of R1 sorted by ascending attribute sum,
// building the order on first use.
func (e *engine) allLeftOrder() []int {
	if e.allLeftSorted == nil {
		e.allLeftSorted = sortBySum(e.q.R1, allIndices(e.q.R1.Len()))
	}
	return e.allLeftSorted
}

// leftProbeOrder returns the left list sorted by ascending attribute sum,
// reusing the cached ordering when the list is all of R1 and the last
// subset ordering when the list is the one most recently sorted (the
// augmented target list A1 feeds two of the grouping cells).
func (e *engine) leftProbeOrder(left []int) []int {
	if len(left) == e.q.R1.Len() {
		return e.allLeftOrder()
	}
	if sameIDs(left, e.memoLeft) {
		return e.memoLeftSorted
	}
	sorted := sortBySum(e.q.R1, left)
	e.memoLeft, e.memoLeftSorted = left, sorted
	return sorted
}

// checkerRightIndex returns the probe-ordered checker index over the given
// R2 subset, reusing the cached full-relation index when the subset is all
// of R2 and the last subset index otherwise (A2 feeds two of the grouping
// cells' checkers).
func (e *engine) checkerRightIndex(right []int) *join.Index {
	if len(right) == e.q.R2.Len() {
		return e.rightAllIndex()
	}
	if sameIDs(right, e.memoRight) {
		return e.memoRightIx
	}
	ix := join.NewIndexTrans(e.q.R1, e.q.R2, e.rightProbeOrder(right), e.cond, e.keyTrans())
	e.memoRight, e.memoRightIx = right, ix
	return ix
}

func (e *engine) newChecker(left, right []int) *checker {
	c := &checker{e: e}
	c.reset(e.leftProbeOrder(left), e.checkerRightIndex(right))
	return c
}

// use points the checker at left × ix, re-resolving the partner list only
// when the lists differ by identity from the ones it holds: the cell loop
// passes grouping's one fixed pair per cell, so it resolves once per
// cell, and the dominator arm's τ(u) × τ(v) once per candidate.
func (c *checker) use(left []int, ix *join.Index) {
	if ix != c.ix || !sameIDs(left, c.left) {
		c.reset(left, ix)
	}
}

// reset points the checker at left (already in probe order) × ix,
// resolving the partner list into the engine scratch.
func (c *checker) reset(left []int, ix *join.Index) {
	e := c.e
	if e.scratch.lefts == nil {
		// No left list outgrows R1, so the scratch is sized once per engine.
		e.scratch.lefts = make([]int32, 0, e.q.R1.Len())
		e.scratch.partners = make([][]int32, 0, e.q.R1.Len())
	}
	lefts, partners := e.scratch.lefts[:0], e.scratch.partners[:0]
	for _, i := range left {
		if p := ix.Partners(e.q.R1, i); len(p) > 0 {
			lefts = append(lefts, int32(i))
			partners = append(partners, p)
		}
	}
	e.scratch.lefts, e.scratch.partners = lefts, partners
	c.left, c.ix, c.lefts, c.partners = left, ix, lefts, partners
}

// dominates reports whether some join-compatible pair from the checker's
// lists k-dominates cand.
//
// Three optimizations, the first two justified by the target-set theorem
// (Def 5 / DESIGN.md §3): a left tuple x whose local attributes win fewer
// than k″1 = k − l2 − a positions against cand's left part can never
// complete a dominator, so all its pairs are skipped; the k-dominance test
// runs directly over the base vectors without materializing the joined
// tuple; and the x-section of the test (the l1 left-local comparisons plus
// the reachability bound) is computed once per left tuple and shared by
// all of its partners, instead of being redone inside every pair test.
// It is the only verification loop: cells, the pool's chunks, the
// maintainer's sweeps, membership probes and round-2 votes all call it.
func (c *checker) dominates(cand []float64) bool {
	e := c.e
	// The x-section threshold: the pair test's own reachability bound at
	// pos = l1 is K − (d − l1) = K − l2 − a (d = l1+l2+a), which is exactly
	// the target-set threshold k″1 — Def 5's prune is the bound the test
	// would apply anyway, hoisted above the partner loop.
	for n, i := range c.lefts {
		x := e.at1[int(i)*e.d1 : int(i)*e.d1+e.d1]
		leq, strict, ok := localPrefix(x, cand, e.l1, e.k1pp)
		if !ok {
			continue
		}
		for _, j := range c.partners[n] {
			if e.pairKDominatesTail(x, int(j), leq, strict, cand) {
				return true
			}
		}
	}
	return false
}

// localPrefix computes the x-section of the k-dominance test: how many of
// the first l1 cand positions x wins or ties, and whether any win is
// strict. ok is false when leq cannot reach (or ends below) threshold t —
// the same early exit the per-pair bound would take, hoisted out of the
// partner loop.
func localPrefix(x, cand []float64, l1, t int) (leq int, strict, ok bool) {
	for i := 0; i < l1; i++ {
		if v, c := x[i], cand[i]; v <= c {
			leq++
			if v < c {
				strict = true
			}
		}
		if leq+(l1-i-1) < t {
			return 0, false, false
		}
	}
	return leq, strict, leq >= t
}

// pairKDominatesTail finishes a k-dominance test against cand for the pair
// (x, R2[j]), resuming after a precomputed x-section (leq wins, strict
// strictness over the l1 left locals). The engine's hottest loop: x and y
// are contiguous stride-D slices of the relations' flat attribute columns,
// and the built-in Sum aggregator is devirtualized (isSum) so the
// aggregate section costs one add instead of an indirect call per
// attribute.
func (e *engine) pairKDominatesTail(x []float64, j, leq int, strict bool, cand []float64) bool {
	e.stats.DominationTests++
	y := e.at2[j*e.d2 : j*e.d2+e.d2]
	k := e.q.K
	d := len(cand)
	l1, l2, a := e.l1, e.l2, e.a
	pos := l1
	cy := cand[l1:]
	for t := 0; t < l2; t++ {
		if v, c := y[t], cy[t]; v <= c {
			leq++
			if v < c {
				strict = true
			}
		}
		pos++
		if leq+(d-pos) < k {
			return false
		}
	}
	if e.isSum {
		for t := 0; t < a; t++ {
			if v, c := x[l1+t]+y[l2+t], cand[pos]; v <= c {
				leq++
				if v < c {
					strict = true
				}
			}
			pos++
			if leq+(d-pos) < k {
				return false
			}
		}
	} else {
		for t := 0; t < a; t++ {
			if v, c := e.agg.Fn(x[l1+t], y[l2+t]), cand[pos]; v <= c {
				leq++
				if v < c {
					strict = true
				}
			}
			pos++
			if leq+(d-pos) < k {
				return false
			}
		}
	}
	return leq >= k && strict
}

// targetUnion returns the indices of every tuple in r that belongs to the
// target set of at least one tuple in base: the paper's Augment step
// (Algo 2 lines 6-7) generalized to the aggregate variant. local and kpp
// are the relation's local-attribute count and k″ threshold.
func targetUnion(r *dataset.Relation, base []int, local, kpp int) []int {
	var out []int
	for x := 0; x < r.Len(); x++ {
		xa := r.Attrs(x)
		for _, u := range base {
			if localLeqAtLeast(xa, r.Attrs(u), local, kpp) {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sortBySum returns a copy of idx ordered by ascending attribute sum of the
// referenced rows of r, so likely dominators are probed first; rows with
// equal sums keep their order in idx. Sums are precomputed into a flat
// entry slice beside each row's input position, and sorting on (sum,
// position) makes the order total, so the unstable pdqsort yields exactly
// the stable order without the stable sort's O(n log² n) merging.
func sortBySum(r *dataset.Relation, idx []int) []int {
	type entry struct {
		sum float64
		pos int
	}
	entries := make([]entry, len(idx))
	for n, i := range idx {
		entries[n] = entry{sumOf(r.Attrs(i)), n}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.sum, b.sum); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]int, len(entries))
	for n, e := range entries {
		out[n] = idx[e.pos]
	}
	return out
}
