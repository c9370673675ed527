package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
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

func TestMembershipMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 20; trial++ {
		r1 := synthetic(10+rng.Intn(20), 3, 2, datagen.Independent, int64(trial*2+1))
		r2 := synthetic(10+rng.Intn(20), 3, 2, datagen.Independent, int64(trial*2+2))
		q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
		res, err := core.Run(q, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		inSky := map[[2]int]bool{}
		for _, p := range res.Skyline {
			inSky[[2]int{p.Left, p.Right}] = true
		}
		var pairs [][2]int
		g2 := r2.GroupIndex()
		for i := 0; i < r1.Len(); i++ {
			for _, j := range g2[r1.Key(i)] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		members, err := core.MembershipContext(context.Background(), q, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for n, pr := range pairs {
			if members[n] != inSky[pr] {
				t.Fatalf("trial %d: membership of %v = %v, Run says %v", trial, pr, members[n], inSky[pr])
			}
		}
	}
}

func TestMembershipErrors(t *testing.T) {
	r1 := synthetic(10, 3, 2, datagen.Independent, 1)
	r2 := synthetic(10, 3, 2, datagen.Independent, 2)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	if _, err := core.MembershipContext(context.Background(), q, [][2]int{{-1, 0}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
	// Find a non-compatible pair (different keys).
	for j := 0; j < r2.Len(); j++ {
		if r2.Key(j) != r1.Key(0) {
			if _, err := core.MembershipContext(context.Background(), q, [][2]int{{0, j}}); err == nil {
				t.Error("join-incompatible pair accepted")
			}
			break
		}
	}
}

func TestEstimateCardinalityExactWhenSampleCoversJoin(t *testing.T) {
	// SampleSize >= joined size: the estimate must be exact.
	r1 := synthetic(30, 3, 3, datagen.Independent, 11)
	r2 := synthetic(30, 3, 3, datagen.Independent, 12)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	est, err := EstimateCardinality(context.Background(), q, Options{SampleSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality != len(res.Skyline) {
		t.Errorf("full-sample estimate %d, actual %d", est.Cardinality, len(res.Skyline))
	}
	if est.SampleSize != est.JoinedSize {
		t.Errorf("sample size %d, want joined size %d", est.SampleSize, est.JoinedSize)
	}
}

func TestEstimateCardinalityApproximates(t *testing.T) {
	r1 := synthetic(200, 4, 5, datagen.AntiCorrelated, 21)
	r2 := synthetic(200, 4, 5, datagen.AntiCorrelated, 22)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 6}
	res, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(len(res.Skyline))
	est, err := EstimateCardinality(context.Background(), q, Options{SampleSize: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With 400 samples the binomial standard error is below 0.025; allow a
	// generous 4-sigma band plus slack for small counts.
	frac := actual / float64(est.JoinedSize)
	if math.Abs(est.SkylineFraction-frac) > 0.1+4*math.Sqrt(frac*(1-frac)/400) {
		t.Errorf("estimated fraction %.3f, actual %.3f (joined %d, actual skyline %.0f)",
			est.SkylineFraction, frac, est.JoinedSize, actual)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	r1 := synthetic(100, 3, 4, datagen.Independent, 31)
	r2 := synthetic(100, 3, 4, datagen.Independent, 32)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	a, err := EstimateCardinality(context.Background(), q, Options{SampleSize: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateCardinality(context.Background(), q, Options{SampleSize: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cardinality != b.Cardinality || a.SkylineFraction != b.SkylineFraction {
		t.Error("same seed produced different estimates")
	}
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
	plan, err := Choose(context.Background(), q, Options{SampleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm == core.Naive {
		t.Errorf("large join planned Naive (%s)", plan.Reason)
	}
	if plan.Estimate == nil || plan.Reason == "" {
		t.Error("plan missing estimate or rationale")
	}
}

func TestPlannerRun(t *testing.T) {
	r1 := synthetic(80, 3, 4, datagen.Independent, 61)
	r2 := synthetic(80, 3, 4, datagen.Independent, 62)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	res, plan, err := Run(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != len(want.Skyline) {
		t.Errorf("planned run returned %d skylines, want %d (alg %v)", len(res.Skyline), len(want.Skyline), plan.Algorithm)
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := EstimateCardinality(context.Background(), core.Query{}, Options{}); err == nil {
		t.Error("invalid query accepted")
	}
	// Empty join: keys never match.
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 2}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "b", Attrs: []float64{1, 2}}})
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	if _, err := EstimateCardinality(context.Background(), q, Options{}); !errors.Is(err, ErrEmptyJoin) {
		t.Errorf("empty join: err = %v, want ErrEmptyJoin", err)
	}
}

func TestSampleRanksDistinctAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		total := 1 + rng.Intn(5000)
		m := 1 + rng.Intn(total)
		got := sampleRanksForTest(int64(trial+1), total, m)
		seen := map[int]bool{}
		for _, r := range got {
			if r < 0 || r >= total {
				t.Fatalf("trial %d: rank %d out of [0,%d)", trial, r, total)
			}
			if seen[r] {
				t.Fatalf("trial %d: duplicate rank %d", trial, r)
			}
			seen[r] = true
		}
		if len(got) != m {
			t.Fatalf("trial %d: got %d ranks, want %d", trial, len(got), m)
		}
	}
}

func TestSampleRanksFullCoverage(t *testing.T) {
	// m == total must yield a permutation of 0..total-1.
	const total = 257
	got := sampleRanksForTest(9, total, total)
	seen := make([]bool, total)
	for _, r := range got {
		if seen[r] {
			t.Fatalf("duplicate rank %d in full sample", r)
		}
		seen[r] = true
	}
}

func TestSamplePairsJoinCompatibleAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandGreaterEq}
	for trial := 0; trial < 30; trial++ {
		r1 := synthetic(20+rng.Intn(60), 3, 3, datagen.Independent, int64(100+trial*2))
		r2 := synthetic(20+rng.Intn(60), 3, 3, datagen.Independent, int64(101+trial*2))
		cond := conds[rng.Intn(len(conds))]
		q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond}, K: 4}
		total, err := join.CountPairs(r1, r2, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if total == 0 {
			continue
		}
		ix, prefix := rankSpace(q)
		if got := prefix[len(prefix)-1]; got != total {
			t.Fatalf("trial %d: rank space holds %d pairs, CountPairs says %d", trial, got, total)
		}
		m := 1 + rng.Intn(total)
		pairs := samplePairs(q, ix, prefix, Options{SampleSize: m, Seed: int64(trial + 1)})
		if len(pairs) != m {
			t.Fatalf("trial %d: sampled %d pairs, want %d", trial, len(pairs), m)
		}
		seen := map[[2]int]bool{}
		for _, pr := range pairs {
			if seen[pr] {
				t.Fatalf("trial %d: duplicate pair %v", trial, pr)
			}
			seen[pr] = true
			if cond != join.Cross && !cond.MatchesAt(r1, pr[0], r2, pr[1]) {
				t.Fatalf("trial %d: sampled pair %v not join-compatible under %v", trial, pr, cond)
			}
		}
	}
}

func TestEstimateCancelled(t *testing.T) {
	r1 := synthetic(200, 4, 5, datagen.AntiCorrelated, 81)
	r2 := synthetic(200, 4, 5, datagen.AntiCorrelated, 82)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 6}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateCardinality(ctx, q, Options{SampleSize: 400}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled estimate returned %v, want context.Canceled", err)
	}
	if _, _, err := Run(ctx, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled planner run returned %v, want context.Canceled", err)
	}
}

// sampleRanksForTest drives sampleRanks from a v2 PCG source. The seed
// words are arbitrary (and unrelated to samplePairs' seeding): the tests
// assert distribution-level properties, not specific streams.
func sampleRanksForTest(seed int64, total, m int) []int {
	return sampleRanks(randv2.New(randv2.NewPCG(uint64(seed), 1)), total, m)
}

// TestChooseRule pins Choose as the core rule plus a reason: an empty join
// plans naive with JoinedSize 0, a join at core.AutoNaiveCap runs naive,
// one pair over it runs the dominator arm, a non-strict aggregator runs
// naive without counting, and nothing is sampled.
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
		if plan.Estimate.JoinedSize != size || plan.Estimate.SampleSize != 0 {
			t.Errorf("join of %d: estimate joined %d sampled %d, want sampled 0",
				size, plan.Estimate.JoinedSize, plan.Estimate.SampleSize)
		}
	}

	q := core.Query{R1: rel("a", 1, 1), R2: rel("b", 4000, 1), Spec: join.Spec{Cond: join.Cross, Agg: join.Max}, K: 4}
	plan, err := Choose(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != core.Naive || plan.Estimate != nil || plan.Reason == "" {
		t.Errorf("max aggregator planned %v, estimate %v, reason %q; want naive, nil, a reason", plan.Algorithm, plan.Estimate, plan.Reason)
	}
}

// TestDominatorArmDoesLessWork pins why Choose prefers the dominator arm,
// in the deterministic domination-test count: on one large group at a k
// where most candidates survive, grouping checks each survivor against a
// whole cell join, the dominator arm against its target-set join only.
func TestDominatorArmDoesLessWork(t *testing.T) {
	rel := func(name string, seed int64) *dataset.Relation {
		return datagen.MustGenerate(datagen.Config{
			Name: name, N: 400, Local: 5, Agg: 2, Groups: 1, Dist: datagen.Independent, Seed: seed,
		})
	}
	q := core.Query{R1: rel("r1", 101), R2: rel("r2", 102), Spec: join.Spec{Cond: join.Equality}, K: 11}
	g, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Run(q, core.DominatorBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Skyline) != len(d.Skyline) {
		t.Fatalf("skylines differ: grouping %d, dominator %d", len(g.Skyline), len(d.Skyline))
	}
	for i := range g.Skyline {
		if g.Skyline[i].Left != d.Skyline[i].Left || g.Skyline[i].Right != d.Skyline[i].Right {
			t.Fatalf("skylines differ at %d", i)
		}
	}
	t.Logf("skyline %d, domination tests: grouping %d, dominator %d",
		len(d.Skyline), g.Stats.DominationTests, d.Stats.DominationTests)
	if d.Stats.DominationTests*5 > g.Stats.DominationTests {
		t.Errorf("dominator arm ran %d domination tests, want at most a fifth of grouping's %d",
			d.Stats.DominationTests, g.Stats.DominationTests)
	}
}
