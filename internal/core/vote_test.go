package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dom"
	"repro/internal/join"
)

// TestVotePrimitivesMatchScanOracle pins the probe and vote primitives —
// AnyDominators, AnyDominatorsContext, Membership, IsSkylineMember and the
// Resident forms of them and of FindK/FindKAtMost — to a brute-force scan
// over join.Pairs, across the six join conditions. Sum exercises the
// strict (checker) arm and Max the non-strict (scan) arm of
// AnyDominators; each runs with and without a resident, on foreign
// vectors and on the join's own (member and non-member) vectors.
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
				vectors := make([][]float64, 0, 8+len(pairs))
				for i := 0; i < 8; i++ {
					v := make([]float64, q.Width())
					for j := range v {
						v[j] = float64(rng.Intn(6)) - 0.5
					}
					vectors = append(vectors, v)
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
					"AnyDominators":          func() ([]bool, error) { return AnyDominators(q, vectors) },
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
				if !agg.Strict {
					continue // membership and find-k run the checker, which needs strictness
				}

				ids := make([][2]int, len(pairs))
				members := make([]bool, len(pairs))
				for n, p := range pairs {
					ids[n] = [2]int{p.Left, p.Right}
					members[n] = !dominatedAt(p.Attrs, q.K)
				}
				got, err := Membership(q, ids)
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
					if in, err := IsSkylineMember(q, id[0], id[1]); err != nil || in != members[n] {
						t.Fatalf("%s: IsSkylineMember(%d,%d) = %v, %v; scan oracle %v", label, id[0], id[1], in, err, members[n])
					}
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
