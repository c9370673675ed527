package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/join"
)

var allJoinConditions = []join.Condition{
	join.Equality, join.Cross, join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq,
}

// randSubset returns a random subset of 0..n-1 (possibly empty, possibly
// nil — the engine must treat both as "no tuples", never "all tuples").
func randSubset(rng *rand.Rand, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestPropertyEnginePairsMatchScanOracle: for all six join conditions and
// random index lists, the engine's indexed pairs/countPairs/forEachPair
// agree exactly with a nested cond.Matches scan over the same lists.
func TestPropertyEnginePairsMatchScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		r1 := randRelation(rng, "r1", 2+rng.Intn(25), 2, 1, 3, 5)
		r2 := randRelation(rng, "r2", 2+rng.Intn(25), 2, 1, 3, 5)
		for _, cond := range allJoinConditions {
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}, K: 4}
			st := Stats{}
			e := newEngine(q, &st)
			for sub := 0; sub < 4; sub++ {
				left := randSubset(rng, r1.Len())
				right := randSubset(rng, r2.Len())
				label := fmt.Sprintf("trial %d cond %v sub %d", trial, cond, sub)

				// Oracle: nested scan over the same lists.
				want := map[[2]int]bool{}
				for _, i := range left {
					for _, j := range right {
						if cond.MatchesAt(r1, i, r2, j) {
							want[[2]int{i, j}] = true
						}
					}
				}

				got := map[[2]int]bool{}
				e.forEachPair(left, right, func(i, j int) bool {
					if got[[2]int{i, j}] {
						t.Fatalf("%s: forEachPair visited (%d,%d) twice", label, i, j)
					}
					got[[2]int{i, j}] = true
					return false
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: forEachPair visited %v, want %v", label, got, want)
				}
				if n := e.countPairs(left, right); n != len(want) {
					t.Fatalf("%s: countPairs=%d, want %d", label, n, len(want))
				}
				pairs := e.pairs(left, right)
				if len(pairs) != len(want) {
					t.Fatalf("%s: pairs materialized %d, want %d", label, len(pairs), len(want))
				}
				for _, p := range pairs {
					if !want[[2]int{p.Left, p.Right}] {
						t.Fatalf("%s: pairs materialized spurious (%d,%d)", label, p.Left, p.Right)
					}
					attrs := join.CombineAt(r1, r2, p.Left, p.Right, e.agg, nil)
					if !reflect.DeepEqual(p.Attrs, attrs) {
						t.Fatalf("%s: pair (%d,%d) attrs %v, want %v", label, p.Left, p.Right, p.Attrs, attrs)
					}
				}
			}
		}
	}
}

// TestPropertyCheckerMatchesScanOracle: checker.dominates agrees with a
// first-principles scan — some join-compatible pair from the lists
// k-dominates the candidate — for all conditions and random candidates.
// The random subsets leave some lefts without a partner, which the
// checker's partner list must drop (and the test checks that it does).
func TestPropertyCheckerMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	partnerless := 0
	for trial := 0; trial < 40; trial++ {
		r1 := randRelation(rng, "r1", 2+rng.Intn(20), 2, 1, 3, 4)
		r2 := randRelation(rng, "r2", 2+rng.Intn(20), 2, 1, 3, 4)
		for _, cond := range allJoinConditions {
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}, K: 4}
			st := Stats{}
			e := newEngine(q, &st)
			left := randSubset(rng, r1.Len())
			right := randSubset(rng, r2.Len())
			chk := e.newChecker(left, right)
			paired := 0
			for _, i := range left {
				for _, j := range right {
					if cond.MatchesAt(r1, i, r2, j) {
						paired++
						break
					}
				}
			}
			if len(chk.lefts) != paired {
				t.Fatalf("trial %d cond %v: partner list holds %d lefts, %d of %d have partners",
					trial, cond, len(chk.lefts), paired, len(left))
			}
			partnerless += len(left) - paired
			candidates := e.pairs(allIndices(r1.Len()), allIndices(r2.Len()))
			for _, cand := range candidates {
				want := false
				for _, i := range left {
					for _, j := range right {
						if cond.MatchesAt(r1, i, r2, j) && e.pairKDominates(i, j, cand.Attrs) {
							want = true
						}
					}
				}
				if got := chk.dominates(cand.Attrs); got != want {
					t.Fatalf("trial %d cond %v cand (%d,%d): dominates=%v, oracle=%v",
						trial, cond, cand.Left, cand.Right, got, want)
				}
			}
		}
	}
	if partnerless == 0 {
		t.Fatal("no random subset left a left tuple without partners")
	}
}

// TestPropertyParallelSharedIndexMatchesSerial: Exec with Workers > 1 — whose workers
// share one prebuilt checker index — returns exactly Run(q, Grouping) for
// every join condition, worker count, and aggregate arity.
func TestPropertyParallelSharedIndexMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		agg := rng.Intn(3)
		r1 := randRelation(rng, "r1", 5+rng.Intn(30), 2, agg, 1+rng.Intn(3), 5)
		r2 := randRelation(rng, "r2", 5+rng.Intn(30), 2, agg, 1+rng.Intn(3), 5)
		for _, cond := range allJoinConditions {
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
			q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
			serial, err := Run(q, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				parallel, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				assertSameSkyline(t, fmt.Sprintf("trial %d cond %v workers %d", trial, cond, workers), parallel, serial)
			}
		}
	}
}
