package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/join"
)

// TestVotePrimitivesMatchScanOracle pins the probe and vote primitives —
// AnyDominatorsContext, MembershipContext and the Resident forms of them
// and of FindK/FindKAtMost — to a brute-force scan over join.Pairs, across
// the six join conditions. Sum exercises the strict (target-set) arm and
// Max the non-strict (scan) arm of the votes and of membership; each runs
// with and without a resident, on foreign vectors, on foreign vectors that
// reuse a row's local sub-vector (so they share its target-set key) and
// on the join's own (member and non-member) vectors. Every strict vote
// must also spend no more domination tests than a checker over all of
// R1 × R2 spends on the same vector.
func TestVotePrimitivesMatchScanOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(73))
	verdicts := map[bool]int{}
	for trial := 0; trial < 6; trial++ {
		r1 := randRelation(rng, "r1", 4+rng.Intn(20), 2, 1, 1+rng.Intn(3), 5)
		r2 := randRelation(rng, "r2", 4+rng.Intn(20), 2, 1, 1+rng.Intn(3), 5)
		for _, cond := range allJoinConditions {
			for _, agg := range []join.Aggregator{join.Sum, join.Max} {
				q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: agg}}
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
				label := fmt.Sprintf("trial %d cond %v agg %s k=%d", trial, cond, agg.Name, q.K)
				pairs, err := join.Pairs(r1, r2, q.Spec)
				if err != nil {
					t.Fatal(err)
				}
				dominatedAt := func(v []float64, k int) bool {
					for _, p := range pairs {
						if dom.KDominates(p.Attrs, v, k) {
							return true
						}
					}
					return false
				}
				vectors := make([][]float64, 0, 16+len(pairs))
				for i := 0; i < 8; i++ {
					v := make([]float64, q.Width())
					for j := range v {
						v[j] = float64(rng.Intn(6)) - 0.5
					}
					vectors = append(vectors, v)
				}
				// Tied keys: foreign floats around a real row's l1 or l2
				// local sub-vector.
				l1, l2 := r1.Local, r2.Local
				for i := 0; i < 4; i++ {
					v := slices.Clone(vectors[i])
					copy(v[:l1], r1.Attrs(i % r1.Len())[:l1])
					w := slices.Clone(vectors[4+i])
					copy(w[l1:l1+l2], r2.Attrs(i % r2.Len())[:l2])
					vectors = append(vectors, v, w)
				}
				for _, p := range pairs {
					vectors = append(vectors, p.Attrs)
				}
				want := make([]bool, len(vectors))
				for i, v := range vectors {
					want[i] = dominatedAt(v, q.K)
					verdicts[want[i]]++
				}
				res, err := NewResident(q)
				if err != nil {
					t.Fatal(err)
				}
				for name, vote := range map[string]func() ([]bool, error){
					"AnyDominatorsContext":   func() ([]bool, error) { return AnyDominatorsContext(ctx, q, vectors) },
					"Resident.AnyDominators": func() ([]bool, error) { return res.AnyDominators(ctx, q, vectors) },
				} {
					got, err := vote()
					if err != nil {
						t.Fatalf("%s: %s: %v", label, name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s = %v, scan oracle %v", label, name, got, want)
					}
				}
				if agg.Strict {
					for i, v := range vectors {
						for _, r := range []*Resident{nil, res} {
							if tau, full := voteTests(t, q, r, v); tau > full {
								t.Fatalf("%s: vector %d (resident %v): target-set vote spent %d domination tests, full checker %d",
									label, i, r != nil, tau, full)
							}
						}
					}
				}

				ids := make([][2]int, len(pairs))
				members := make([]bool, len(pairs))
				for n, p := range pairs {
					ids[n] = [2]int{p.Left, p.Right}
					members[n] = !dominatedAt(p.Attrs, q.K)
				}
				got, err := MembershipContext(ctx, q, ids)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := res.Membership(ctx, q, ids)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) > 0 && (!reflect.DeepEqual(got, members) || !reflect.DeepEqual(gotRes, members)) {
					t.Fatalf("%s: Membership = %v, Resident.Membership = %v, scan oracle %v", label, got, gotRes, members)
				}
				for n, id := range ids {
					if in, err := MembershipContext(ctx, q, [][2]int{id}); err != nil || in[0] != members[n] {
						t.Fatalf("%s: MembershipContext(%d,%d) = %v, %v; scan oracle %v", label, id[0], id[1], in, err, members[n])
					}
				}
				if !agg.Strict {
					continue // find-k runs the optimized algorithms, which need strictness
				}

				sizes := make(map[int]int)
				for k := q.KMin(); k <= q.Width(); k++ {
					for _, p := range pairs {
						if !dominatedAt(p.Attrs, k) {
							sizes[k]++
						}
					}
				}
				findK := func(delta int) int {
					for k := q.KMin(); k <= q.Width(); k++ {
						if sizes[k] >= delta {
							return k
						}
					}
					return q.Width()
				}
				delta := 1 + rng.Intn(len(pairs)+1)
				wantAtMost := findK(delta + 1)
				if sizes[wantAtMost] > delta && wantAtMost > q.KMin() {
					wantAtMost--
				}
				for _, alg := range FindKAlgorithms {
					fk, err := res.FindK(ctx, q, delta, alg)
					if err != nil {
						t.Fatal(err)
					}
					am, err := res.FindKAtMost(ctx, q, delta, alg)
					if err != nil {
						t.Fatal(err)
					}
					if fk.K != findK(delta) || am.K != wantAtMost {
						t.Fatalf("%s delta=%d alg %v: Resident.FindK = %d, FindKAtMost = %d; scan oracle %d, %d",
							label, delta, alg, fk.K, am.K, findK(delta), wantAtMost)
					}
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("vacuous instances: verdicts %v, want both dominated and free vectors", verdicts)
	}
}

// voteTests returns the domination tests the strict vote on v spends
// against its target sets and the tests a checker over all of R1 × R2
// spends on v, each on a fresh engine seeded from res (which may be nil).
func voteTests(t *testing.T, q Query, res *Resident, v []float64) (tau, full int64) {
	t.Helper()
	var vst, fst Stats
	if _, err := newEngineResident(q, &vst, res).votes(context.Background(), [][]float64{v}); err != nil {
		t.Fatal(err)
	}
	e := newEngineResident(q, &fst, res)
	e.newChecker(allIndices(q.R1.Len()), allIndices(q.R2.Len())).dominates(v)
	return vst.DominationTests, fst.DominationTests
}
