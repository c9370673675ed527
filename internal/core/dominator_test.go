package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

// eagerTargetSet is the oracle's target set: a scan of r in row order, the
// list the dominator arm once built for every SS/SN tuple up front and then
// sorted (leftProbeOrder) or indexed (checkerRightIndex) per component.
func eagerTargetSet(r *dataset.Relation, u, local, kpp int) []int {
	var out []int
	for x := 0; x < r.Len(); x++ {
		if localLeqAtLeast(r.Attrs(x), r.Attrs(u), local, kpp) {
			out = append(out, x)
		}
	}
	return out
}

// assertLazyTargetsMatchEager checks the dominator arm's lazy, presorted
// target sets against the eager row-order sets sorted and indexed per
// component: equal τ(u) lists, right indexes with equal partner lists for
// every R1 row, and per candidate the same verdict after the same number
// of domination tests. Sets are keyed by local sub-vector, so rows with
// equal locals must share one map entry. It returns the number of
// candidates compared and of rows that shared an entry with an earlier row.
func assertLazyTargetsMatchEager(t *testing.T, label string, q Query, res *Resident) (compared, shared int) {
	t.Helper()
	var lst, est Stats
	lazy := newEngineResident(q, &lst, res)
	eager := newEngineResident(q, &est, res)
	k1p, k2p := q.KPrimes()
	c1 := Categorize(q.R1, k1p, lazy.cond, Left)
	c2 := Categorize(q.R2, k2p, lazy.cond, Right)
	ts := newTargetSets(lazy)
	local1 := func(u int) []float64 { return q.R1.Attrs(u)[:lazy.l1] }
	local2 := func(v int) []float64 { return q.R2.Attrs(v)[:lazy.l2] }

	eagerLeft := map[int][]int{}
	rows1 := append(slices.Clone(c1.SS), c1.SN...)
	for _, u := range rows1 {
		want := eager.leftProbeOrder(eagerTargetSet(q.R1, u, eager.l1, eager.k1pp))
		eagerLeft[u] = want
		if got := ts.left(local1(u)); !slices.Equal(got, want) {
			t.Fatalf("%s: τ(%d) over R1 = %v, eager %v", label, u, got, want)
		}
	}
	eagerRight := map[int]*join.Index{}
	rows2 := append(slices.Clone(c2.SS), c2.SN...)
	for _, v := range rows2 {
		want := eager.checkerRightIndex(eagerTargetSet(q.R2, v, eager.l2, eager.k2pp))
		eagerRight[v] = want
		got := ts.right(local2(v))
		for i := 0; i < q.R1.Len(); i++ {
			if g, w := got.Partners(q.R1, i), want.Partners(q.R1, i); !slices.Equal(g, w) {
				t.Fatalf("%s: τ(%d) partners of R1 row %d = %v, eager %v", label, v, i, g, w)
			}
		}
	}
	distinct := func(rows []int, local func(int) []float64) int {
		seen := map[string]bool{}
		for _, u := range rows {
			seen[fmt.Sprint(local(u))] = true
		}
		return len(seen)
	}
	if d1, d2 := distinct(rows1, local1), distinct(rows2, local2); len(ts.lefts) != d1 || len(ts.rights) != d2 {
		t.Fatalf("%s: %d left and %d right sets built, want one per distinct local sub-vector (%d, %d)",
			label, len(ts.lefts), len(ts.rights), d1, d2)
	}
	shared = len(rows1) + len(rows2) - len(ts.lefts) - len(ts.rights)

	lchk, echk := &checker{e: lazy}, &checker{e: eager}
	for _, cell := range [][]join.Pair{
		lazy.pairs(c1.SS, c2.SS), lazy.pairs(c1.SS, c2.SN), lazy.pairs(c1.SN, c2.SS), lazy.pairs(c1.SN, c2.SN),
	} {
		compared += len(cell)
		for _, p := range cell {
			l0, e0 := lst.DominationTests, est.DominationTests
			lchk.reset(ts.of(p.Attrs))
			echk.reset(eagerLeft[p.Left], eagerRight[p.Right])
			gd, wd := lchk.dominates(p.Attrs), echk.dominates(p.Attrs)
			gt, wt := lst.DominationTests-l0, est.DominationTests-e0
			if gd != wd || gt != wt {
				t.Fatalf("%s: candidate %d⋈%d: lazy (dominated %v, %d tests), eager (%v, %d)",
					label, p.Left, p.Right, gd, gt, wd, wt)
			}
		}
	}
	return compared, shared
}

// TestLazyTargetSetsMatchEagerOracle pins the dominator arm's probe order:
// target sets built lazily by scanning each relation in probe order equal
// the eager sets sorted per component, under all six join conditions, on
// small integer attributes (many tied sums, and many rows with equal local
// sub-vectors, which must share one set), with no resident, a fresh one,
// and one carried through Absorb and Retract on both sides.
func TestLazyTargetSetsMatchEagerOracle(t *testing.T) {
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq}
	for _, cond := range conds {
		t.Run(cond.Token(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cond)*31 + 7))
			compared, shared := 0, 0
			check := func(label string, q Query, res *Resident) {
				c, s := assertLazyTargetsMatchEager(t, label, q, res)
				compared, shared = compared+c, shared+s
			}
			for trial := 0; trial < 8; trial++ {
				local, agg, groups, domain := 2+rng.Intn(2), trial%3, 1+rng.Intn(3), 4
				d := local + agg
				// Every fourth trial pins R2's locals to the domain maximum, so
				// all of R2 shares one key, its τ(v) is all of R2 and the arm
				// checks against the full index — the resident's own once
				// Absorb has grown it.
				flat := trial%4 == 3
				gen2 := func(n int) []dataset.Tuple {
					ts := make([]dataset.Tuple, n)
					for i := range ts {
						ts[i] = randTuple(rng, d, groups, domain)
						for j := 0; flat && j < local; j++ {
							ts[i].Attrs[j] = float64(domain - 1)
						}
					}
					return ts
				}
				r1 := randRelation(rng, "r1", 30+rng.Intn(20), local, agg, groups, domain)
				r2 := dataset.MustNew("r2", local, agg, gen2(30+rng.Intn(20)))
				q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
				for k := q.KMin(); k <= q.Width(); k++ {
					q.K = k
					check(fmt.Sprintf("trial %d k=%d no resident", trial, k), q, nil)
				}

				res, err := NewResident(q)
				if err != nil {
					t.Fatal(err)
				}
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
				check(fmt.Sprintf("trial %d k=%d fresh resident", trial, q.K), q, res)

				if err := res.Absorb(Left, appendTail(t, r1, rng, 6, d, groups, domain)); err != nil {
					t.Fatal(err)
				}
				first, err := r2.AppendBatch(gen2(7))
				if err != nil {
					t.Fatal(err)
				}
				ids2 := make([]int, 7)
				for i := range ids2 {
					ids2[i] = first + i
				}
				if err := res.Absorb(Right, ids2); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("trial %d k=%d absorbed resident", trial, q.K), q, res)

				for _, side := range []Side{Left, Right} {
					rel := r1
					if side == Right {
						rel = r2
					}
					ids := []int{1, 4, rel.Len() - 2}
					if err := rel.DeleteBatch(ids); err != nil {
						t.Fatal(err)
					}
					if err := res.Retract(side, ids); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("trial %d k=%d retracted resident", trial, q.K), q, res)
			}
			if compared < 100 || shared == 0 {
				t.Fatalf("only %d candidates compared, %d rows sharing a set", compared, shared)
			}
			t.Logf("%d candidates compared, %d rows sharing a set", compared, shared)
		})
	}
}

// TestSortBySumMatchesSliceStable pins sortBySum's order to the reflective
// stable sort it replaced, on inputs where most sums tie.
func TestSortBySumMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 50; trial++ {
		r := randRelation(rng, "r", 1+rng.Intn(60), 1+rng.Intn(3), rng.Intn(2), 2, 1+rng.Intn(3))
		idx := rng.Perm(r.Len())[:rng.Intn(r.Len()+1)]
		want := slices.Clone(idx)
		sort.SliceStable(want, func(a, b int) bool { return sumOf(r.Attrs(want[a])) < sumOf(r.Attrs(want[b])) })
		if got := sortBySum(r, idx); !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortBySum(%v) = %v, sort.SliceStable %v", trial, idx, got, want)
		}
	}
}

// TestGroupByKeyMatchesSliceStable pins Categorize's grouping order to the
// reflective stable sort on KeyID it replaced, on the counting-sort path
// and on the sparse-symbol path a relation reaches once deletes have left
// many more interned keys than rows.
func TestGroupByKeyMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var paths [2]int // trials on the sparse, dense path
	for trial := 0; trial < 40; trial++ {
		r := randRelation(rng, "r", 1+rng.Intn(60), 2, 0, 1+rng.Intn(5), 3)
		if trial%2 == 1 {
			// Intern many keys, then delete the rows that carried them.
			extra := make([]dataset.Tuple, 600)
			for i := range extra {
				extra[i] = dataset.Tuple{Key: fmt.Sprintf("x%d", i), Attrs: []float64{0, 0}}
			}
			first, err := r.AppendBatch(extra)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, len(extra))
			for i := range ids {
				ids[i] = first + i
			}
			if err := r.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
		}
		if join.DenseKeys(r.Symbols().Len(), r.Len()) {
			paths[1]++
		} else {
			paths[0]++
		}
		want := allIndices(r.Len())
		sort.SliceStable(want, func(a, b int) bool { return r.KeyID(want[a]) < r.KeyID(want[b]) })
		if got := groupByKey(r); !slices.Equal(got, want) {
			t.Fatalf("trial %d: groupByKey = %v, sort.SliceStable %v", trial, got, want)
		}
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("trials took the sparse path %d times and the dense path %d times, want both", paths[0], paths[1])
	}
}
