package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

// TestResolveAuto pins the rule's three steps in order, the cap boundary,
// that Workers and Emit leave the pick alone, and that Exec reports the
// arm it ran.
func TestResolveAuto(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rel := func(name string, n, agg int) *dataset.Relation {
		ts := make([]dataset.Tuple, n)
		for i := range ts {
			ts[i] = dataset.Tuple{Key: "k", Attrs: []float64{float64(i), float64(-i), 1}[:2+agg]}
		}
		return dataset.MustNew(name, 2, agg, ts)
	}
	cross := func(n2, agg int, fn join.Aggregator) Query {
		return Query{R1: rel("a", 1, agg), R2: rel("b", n2, agg), Spec: join.Spec{Cond: join.Cross, Agg: fn}, K: 3 + agg}
	}
	emit := Emit(func(join.Pair) bool { return true })
	for _, c := range []struct {
		name       string
		q          Query
		o          ExecOptions
		procs      int
		want       Algorithm
		wantJoined int
	}{
		{"explicit passes through", cross(10, 0, join.Sum), ExecOptions{Algorithm: Grouping}, 2, Grouping, -1},
		{"non-strict runs naive", cross(3000, 1, join.Max), ExecOptions{Algorithm: Auto, Workers: 4, Emit: emit}, 2, Naive, -1},
		{"workers keep the serial pick", cross(10, 0, join.Sum), ExecOptions{Algorithm: Auto, Workers: 2}, 2, Naive, 10},
		{"empty join runs naive", Query{R1: rel("a", 1, 0), R2: dataset.MustNew("b", 2, 0, []dataset.Tuple{{Key: "x", Attrs: []float64{1, 2}}}), Spec: join.Spec{Cond: join.Equality}, K: 3}, ExecOptions{Algorithm: Auto}, 2, Naive, 0},
		{"join at the cap runs naive", cross(AutoNaiveCap, 0, join.Sum), ExecOptions{Algorithm: Auto}, 2, Naive, AutoNaiveCap},
		{"join over the cap runs dominator", cross(AutoNaiveCap+1, 1, join.Sum), ExecOptions{Algorithm: Auto}, 2, DominatorBased, AutoNaiveCap + 1},
	} {
		runtime.GOMAXPROCS(c.procs)
		alg, joined := ResolveAuto(c.q, c.o)
		if alg != c.want || joined != c.wantJoined {
			t.Errorf("%s: ResolveAuto = %v, %d; want %v, %d", c.name, alg, joined, c.want, c.wantJoined)
		}
		if c.o.Algorithm != Auto {
			continue
		}
		var emitted []join.Pair
		if c.o.Emit != nil {
			c.o.Emit = func(p join.Pair) bool { emitted = append(emitted, p); return true }
		}
		res, err := Exec(context.Background(), c.q, c.o)
		if err != nil {
			t.Fatalf("%s: Exec: %v", c.name, err)
		}
		if res.Algorithm != c.want {
			t.Errorf("%s: Exec ran %v, want %v", c.name, res.Algorithm, c.want)
		}
		want, err := Run(c.q, c.want)
		if err != nil {
			t.Fatal(err)
		}
		got := res
		if c.o.Emit != nil {
			join.SortPairs(emitted)
			got = &Result{Skyline: emitted}
		}
		assertSameSkyline(t, c.name, got, want)
	}
}

// TestResolveAutoAllocs pins the count's cost: through a resident it
// builds nothing, the same constant at n = 200 and n = 2 000; without one
// it is one full-R2 index build.
func TestResolveAutoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{200, 2000} {
		q := Query{
			R1: randRelation(rng, "r1", n, 3, 0, 10, 50), R2: randRelation(rng, "r2", n, 3, 0, 10, 50),
			Spec: join.Spec{Cond: join.Equality}, K: 5,
		}
		res, err := NewResident(q)
		if err != nil {
			t.Fatal(err)
		}
		if alg, _ := ResolveAuto(q, ExecOptions{Algorithm: Auto, Resident: res}); alg != DominatorBased {
			t.Fatalf("n=%d: rule picked %v, want the counting step's dominator", n, alg)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			ResolveAuto(q, ExecOptions{Algorithm: Auto, Resident: res})
		}); allocs != 0 {
			t.Errorf("n=%d: rule over a resident allocates %v times per run, want 0", n, allocs)
		}
		index := testing.AllocsPerRun(20, func() { join.NewFullIndex(q.R1, q.R2, q.Spec.Cond) })
		if allocs := testing.AllocsPerRun(20, func() { ResolveAuto(q, ExecOptions{Algorithm: Auto}) }); allocs != index {
			t.Errorf("n=%d: rule without a resident allocates %v times per run, one index build is %v", n, allocs, index)
		}
	}
}
