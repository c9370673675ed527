package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/join"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// on-the-fly target-set pruning inside the checker, and the sum-ordered
// probe sequence. Run with:
//
//	go test ./internal/core -bench Ablation -benchmem

// ablationQuery is a mid-size instance where verification dominates.
func ablationQuery() Query {
	rng := rand.New(rand.NewSource(601))
	r1 := randRelation(rng, "r1", 250, 5, 0, 10, 1000)
	r2 := randRelation(rng, "r2", 250, 5, 0, 10, 1000)
	return Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 9}
}

// pairKDominates reports whether the joined tuple R1[i] ⋈ R2[j] k-dominates
// the joined attribute vector cand: the x-section prefix followed by the
// shared tail, one counted test per pair. The product checker hoists the
// prefix above the partner loop; this un-hoisted form is the ablation
// control arm's test and the scan oracle's (indexedjoin_test.go).
func (e *engine) pairKDominates(i, j int, cand []float64) bool {
	x := e.at1[i*e.d1 : i*e.d1+e.d1]
	leq, strict, ok := localPrefix(x, cand, e.l1, e.q.K-(len(cand)-e.l1))
	if !ok {
		e.stats.DominationTests++
		return false
	}
	return e.pairKDominatesTail(x, j, leq, strict, cand)
}

// unprunedDominates is the ablation control arm: the checker's partner
// list with no left-level target-set skip and no shared x-section — every
// partner pair gets its own counted full test.
func unprunedDominates(c *checker, cand []float64) bool {
	for n, i := range c.lefts {
		for _, j := range c.partners[n] {
			if c.e.pairKDominates(int(i), int(j), cand) {
				return true
			}
		}
	}
	return false
}

// runGroupingWithPruning mirrors runCells' grouping arm but lets the
// benchmark toggle the checker's target-set skip; it reports the skyline
// size and the domination tests spent.
func runGroupingWithPruning(q Query, prune bool) (count int, tests int64) {
	st := Stats{}
	e := newEngine(q, &st)
	k1p, k2p := q.KPrimes()
	c1 := Categorize(q.R1, k1p, e.cond, Left)
	c2 := Categorize(q.R2, k2p, e.cond, Right)
	a1 := targetUnion(q.R1, c1.SS, e.l1, e.k1pp)
	all1 := allIndices(q.R1.Len())
	all2 := allIndices(q.R2.Len())
	count = len(e.pairs(c1.SS, c2.SS))
	for _, cell := range []struct {
		cand  [][]int
		check [][]int
	}{
		{[][]int{c1.SS, c2.SN}, [][]int{a1, all2}},
		{[][]int{c1.SN, c2.SN}, [][]int{all1, all2}},
	} {
		chk := e.newChecker(cell.check[0], cell.check[1])
		dominated := chk.dominates
		if !prune {
			dominated = func(cand []float64) bool { return unprunedDominates(chk, cand) }
		}
		for _, p := range e.pairs(cell.cand[0], cell.cand[1]) {
			if !dominated(p.Attrs) {
				count++
			}
		}
	}
	return count, st.DominationTests
}

func TestAblationTogglePreservesAnswer(t *testing.T) {
	q := ablationQuery()
	with, withTests := runGroupingWithPruning(q, true)
	without, withoutTests := runGroupingWithPruning(q, false)
	if with != without {
		t.Fatalf("target pruning changed the answer: %d vs %d", with, without)
	}
	if with == 0 {
		t.Fatal("ablation instance produced no skylines; benchmark would be vacuous")
	}
	if withTests > withoutTests {
		t.Fatalf("target pruning spent more domination tests (%d) than the un-pruned control (%d)", withTests, withoutTests)
	}
	t.Logf("domination tests: %d pruned / %d un-pruned = %.3f", withTests, withoutTests, float64(withTests)/float64(withoutTests))
}

func BenchmarkAblationTargetPruningOn(b *testing.B) {
	q := ablationQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGroupingWithPruning(q, true)
	}
}

func BenchmarkAblationTargetPruningOff(b *testing.B) {
	q := ablationQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGroupingWithPruning(q, false)
	}
}

// BenchmarkAblationProbeOrder quantifies the SFS-style sum ordering of the
// checker's probe lists by comparing against identity order.
func BenchmarkAblationProbeOrder(b *testing.B) {
	q := ablationQuery()
	st := Stats{}
	e := newEngine(q, &st)
	k1p, k2p := q.KPrimes()
	c1 := Categorize(q.R1, k1p, e.cond, Left)
	c2 := Categorize(q.R2, k2p, e.cond, Right)
	candidates := e.pairs(c1.SN, c2.SN)
	all1 := allIndices(q.R1.Len())
	all2 := allIndices(q.R2.Len())

	b.Run("sum-ordered", func(b *testing.B) {
		chk := e.newChecker(all1, all2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range candidates {
				chk.dominates(p.Attrs)
			}
		}
	})
	b.Run("identity-order", func(b *testing.B) {
		chk := &checker{e: e}
		chk.reset(all1, join.NewIndex(q.R1, q.R2, all2, e.cond))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range candidates {
				chk.dominates(p.Attrs)
			}
		}
	})
}

func BenchmarkMembershipProbe(b *testing.B) {
	q := ablationQuery()
	g2 := q.R2.GroupIndex()
	var pair [2]int
	for i := 0; i < q.R1.Len(); i++ {
		if js := g2[q.R1.Key(i)]; len(js) > 0 {
			pair = [2]int{i, js[0]}
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MembershipContext(context.Background(), q, [][2]int{pair}); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint(pair)
}
