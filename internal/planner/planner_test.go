package planner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

func synthetic(n, local, groups int, dist datagen.Distribution, seed int64) *dataset.Relation {
	return datagen.MustGenerate(datagen.Config{
		Name: fmt.Sprintf("r%d", seed), N: n, Local: local, Groups: groups, Dist: dist, Seed: seed,
	})
}

func TestChooseTinyJoinPicksNaive(t *testing.T) {
	r1 := synthetic(20, 3, 4, datagen.Independent, 41)
	r2 := synthetic(20, 3, 4, datagen.Independent, 42)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	plan, err := Choose(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != core.Naive {
		t.Errorf("tiny join planned %v, want Naive (%s)", plan.Algorithm, plan.Reason)
	}
}

func TestChooseLargeJoinAvoidsNaive(t *testing.T) {
	r1 := synthetic(300, 5, 10, datagen.Independent, 51)
	r2 := synthetic(300, 5, 10, datagen.Independent, 52)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 7}
	plan, err := Choose(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm == core.Naive {
		t.Errorf("large join planned Naive (%s)", plan.Reason)
	}
	if plan.JoinedSize <= core.AutoNaiveCap || plan.Reason == "" {
		t.Errorf("plan counted a join of %d with reason %q; want more than %d and a rationale",
			plan.JoinedSize, plan.Reason, core.AutoNaiveCap)
	}
}

// TestPlannerRun pins the path the benchmark harness takes: Choose's pick,
// executed through core.Exec, answers what an explicit algorithm does and
// reports the picked arm.
func TestPlannerRun(t *testing.T) {
	r1 := synthetic(80, 3, 4, datagen.Independent, 61)
	r2 := synthetic(80, 3, 4, datagen.Independent, 62)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	plan, err := Choose(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Exec(context.Background(), q, core.ExecOptions{Algorithm: plan.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Skyline, want.Skyline) || res.Algorithm != plan.Algorithm {
		t.Errorf("planned run of %v returned %d skylines as %v, want %d", plan.Algorithm, len(res.Skyline), res.Algorithm, len(want.Skyline))
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := Choose(context.Background(), core.Query{}, Options{}); err == nil {
		t.Error("invalid query accepted")
	}
	r1 := synthetic(20, 3, 4, datagen.Independent, 81)
	r2 := synthetic(20, 3, 4, datagen.Independent, 82)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Choose(ctx, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Choose returned %v, want context.Canceled", err)
	}
}

// TestChooseRule pins Choose as the core rule plus a reason: an empty join
// plans naive with JoinedSize 0, a join at core.AutoNaiveCap runs naive,
// one pair over it runs the dominator arm, and a non-strict aggregator
// runs naive without counting.
func TestChooseRule(t *testing.T) {
	rel := func(name string, n, agg int) *dataset.Relation {
		ts := make([]dataset.Tuple, n)
		for i := range ts {
			ts[i] = dataset.Tuple{Key: name, Attrs: []float64{float64(i), float64(-i), 1}[:2+agg]}
		}
		return dataset.MustNew(name, 2, agg, ts)
	}
	one := rel("a", 1, 0)
	for _, c := range []struct {
		r2   *dataset.Relation
		cond join.Condition
		want core.Algorithm
	}{
		{rel("b", 1, 0), join.Equality, core.Naive},
		{rel("b", core.AutoNaiveCap, 0), join.Cross, core.Naive},
		{rel("b", core.AutoNaiveCap+1, 0), join.Cross, core.DominatorBased},
	} {
		q := core.Query{R1: one, R2: c.r2, Spec: join.Spec{Cond: c.cond}, K: 3}
		size, err := join.CountPairs(q.R1, q.R2, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Choose(context.Background(), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Algorithm != c.want {
			t.Errorf("join of %d planned %v, want %v (%s)", size, plan.Algorithm, c.want, plan.Reason)
		}
		if plan.JoinedSize != size {
			t.Errorf("join of %d: plan counted %d", size, plan.JoinedSize)
		}
	}

	q := core.Query{R1: rel("a", 1, 1), R2: rel("b", 4000, 1), Spec: join.Spec{Cond: join.Cross, Agg: join.Max}, K: 4}
	plan, err := Choose(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != core.Naive || plan.JoinedSize != -1 || plan.Reason == "" {
		t.Errorf("max aggregator planned %v, joined %d, reason %q; want naive, -1, a reason", plan.Algorithm, plan.JoinedSize, plan.Reason)
	}
}
