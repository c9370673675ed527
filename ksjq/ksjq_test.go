package ksjq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
)

// randRelation builds a random relation with small integer attributes (to
// force ties), `groups` join keys and random bands.
func randRelation(rng *rand.Rand, name string, n, local, agg, groups, domain int) *Relation {
	tuples := make([]Tuple, n)
	for i := range tuples {
		attrs := make([]float64, local+agg)
		for j := range attrs {
			attrs[j] = float64(rng.Intn(domain))
		}
		tuples[i] = Tuple{
			Key:   fmt.Sprintf("g%d", rng.Intn(groups)),
			Band:  float64(rng.Intn(8)),
			Attrs: attrs,
		}
	}
	return MustNewRelation(name, local, agg, tuples)
}

// TestRunMatchesCoreAcrossConditions pins the facade to the engine: for
// every join condition and every explicit algorithm, ksjq.Run must return
// byte-identical skylines to core.Run on random instances.
func TestRunMatchesCoreAcrossConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	conds := []Condition{Equality, Cross, BandLess, BandLessEq, BandGreater, BandGreaterEq}
	for _, cond := range conds {
		for trial := 0; trial < 12; trial++ {
			agg := rng.Intn(3)
			r1 := randRelation(rng, "r1", 5+rng.Intn(30), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
			r2 := randRelation(rng, "r2", 5+rng.Intn(30), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
			q := Query{R1: r1, R2: r2, Spec: Spec{Cond: cond, Agg: Sum}}
			q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
			for _, alg := range []Algorithm{Naive, Grouping, DominatorBased} {
				want, err := core.Run(q, alg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(context.Background(), q, Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("cond %v alg %v: %v", cond, alg, err)
				}
				if !reflect.DeepEqual(got.Skyline, want.Skyline) {
					t.Fatalf("cond %v alg %v trial %d: facade skyline diverged from core.Run\nfacade: %v\ncore:   %v",
						cond, alg, trial, got.Skyline, want.Skyline)
				}
			}
		}
	}
}

// TestRunAutoMatchesPlannedAlgorithm pins Auto on both run surfaces to
// the engine's one rule: Run and Prepared.Run report in Result.Algorithm
// the arm core.ResolveAuto picks, and answer what a core.Run of that arm
// answers — on a small join (naive), a large one (dominator) and a
// non-strict aggregator (naive without counting).
func TestRunAutoMatchesPlannedAlgorithm(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(303))
	small := Query{R1: randRelation(rng, "r1", 60, 3, 0, 4, 6), R2: randRelation(rng, "r2", 60, 3, 0, 4, 6),
		Spec: Spec{Cond: Equality}, K: 4}
	large := Query{R1: randRelation(rng, "r1", 120, 3, 1, 2, 6), R2: randRelation(rng, "r2", 120, 3, 1, 2, 6),
		Spec: Spec{Cond: Equality, Agg: Sum}, K: 6}
	nonStrict := large
	nonStrict.Spec.Agg = Max
	for _, c := range []struct {
		name string
		q    Query
		want Algorithm
	}{
		{"small", small, Naive},
		{"large", large, DominatorBased},
		{"max", nonStrict, Naive},
	} {
		alg, _ := core.ResolveAuto(c.q, core.ExecOptions{Algorithm: Auto})
		if alg != c.want {
			t.Fatalf("%s: ResolveAuto picked %v, the case needs %v", c.name, alg, c.want)
		}
		want, err := core.Run(c.q, alg)
		if err != nil {
			t.Fatal(err)
		}
		viaRun, err := Run(ctx, c.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		viaPrepared, err := p.Run(ctx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for surface, res := range map[string]*Result{"Run": viaRun, "Prepared.Run": viaPrepared} {
			if res.Algorithm != alg {
				t.Errorf("%s: %s with Auto ran %v, ResolveAuto picks %v", c.name, surface, res.Algorithm, alg)
			}
			if !reflect.DeepEqual(res.Skyline, want.Skyline) {
				t.Errorf("%s: %s with Auto diverged from core.Run(%v)", c.name, surface, alg)
			}
		}
	}
}

// TestAutoEmptyJoin pins that every facade surface answers an empty join
// with the empty skyline, not an error, and that Auto reports the arm the
// engine's rule picks for a join of 0.
func TestAutoEmptyJoin(t *testing.T) {
	ctx := context.Background()
	q := Query{
		R1:   MustNewRelation("r1", 2, 0, []Tuple{{Key: "a", Attrs: []float64{1, 2}}}),
		R2:   MustNewRelation("r2", 2, 0, []Tuple{{Key: "b", Attrs: []float64{1, 2}}}),
		Spec: Spec{Cond: Equality}, K: 3,
	}
	alg, joined := core.ResolveAuto(q, core.ExecOptions{Algorithm: Auto})
	if alg != Naive || joined != 0 {
		t.Fatalf("ResolveAuto = %v over a join of %d; want naive over 0", alg, joined)
	}
	want, err := core.Run(q, alg)
	if err != nil || len(want.Skyline) != 0 {
		t.Fatalf("core.Run(%v): %v, %v; want the empty skyline", alg, want, err)
	}
	res, err := Run(ctx, q, Options{})
	if err != nil || len(res.Skyline) != 0 || res.Algorithm != alg {
		t.Errorf("Run: %v, %v; want the empty skyline from %v", res, err, alg)
	}
	p, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = p.Run(ctx, Options{}); err != nil || len(res.Skyline) != 0 || res.Algorithm != alg {
		t.Errorf("Prepared.Run: %v, %v; want the empty skyline from %v", res, err, alg)
	}
	for pair, err := range Stream(ctx, q, Options{}) {
		t.Errorf("Stream yielded %v, %v; want nothing", pair, err)
	}
}

func TestRunWorkersAndEmitMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	r1 := randRelation(rng, "r1", 80, 3, 1, 5, 6)
	r2 := randRelation(rng, "r2", 80, 3, 1, 5, 6)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality, Agg: Sum}, K: 6}
	serial, err := Run(context.Background(), q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), q, Options{Algorithm: Grouping, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Skyline, serial.Skyline) {
		t.Error("workers=4 diverged from serial run")
	}
	streamed := collectStream(t, Stream(context.Background(), q, Options{Algorithm: Grouping}))
	if len(streamed) != len(serial.Skyline) {
		t.Errorf("streamed %d tuples, want %d", len(streamed), len(serial.Skyline))
	}
}

func TestOptionConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	r1 := randRelation(rng, "r1", 10, 3, 0, 2, 5)
	r2 := randRelation(rng, "r2", 10, 3, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 6}
	opts := Options{Algorithm: Naive, Workers: 4}
	if _, err := Run(context.Background(), q, opts); !errors.Is(err, ErrOptionConflict) {
		t.Errorf("opts %+v: err = %v, want ErrOptionConflict", opts, err)
	}
	// Workers on the cell arms is not a conflict, and Auto is never one:
	// every run answers the naive oracle's skyline.
	want, err := Run(context.Background(), q, Options{Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Skyline) == 0 {
		t.Fatal("instance has an empty skyline: the comparisons below would check nothing")
	}
	for _, opts := range []Options{
		{Algorithm: Grouping, Workers: 4},
		{Algorithm: DominatorBased, Workers: 4},
		{Algorithm: Auto, Workers: 4},
	} {
		res, err := Run(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("opts %+v rejected: %v", opts, err)
		}
		if !reflect.DeepEqual(res.Skyline, want.Skyline) {
			t.Errorf("opts %+v diverged from the naive answer", opts)
		}
	}
	for _, alg := range []Algorithm{Auto, Naive, DominatorBased} {
		streamed := collectStream(t, Stream(context.Background(), q, Options{Algorithm: alg}))
		if !reflect.DeepEqual(streamed, want.Skyline) {
			t.Errorf("%v stream yielded %d tuples, diverged from the naive answer", alg, len(streamed))
		}
	}
}

func TestRunCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(309))
	r1 := randRelation(rng, "r1", 30, 3, 0, 3, 5)
	r2 := randRelation(rng, "r2", 30, 3, 0, 3, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Auto, Naive, Grouping, DominatorBased} {
		if _, err := Run(ctx, q, Options{Algorithm: alg}); !errors.Is(err, context.Canceled) {
			t.Errorf("alg %v: err = %v, want context.Canceled", alg, err)
		}
	}
	if _, err := FindK(ctx, q, 1, FindKBinary); !errors.Is(err, context.Canceled) {
		t.Errorf("FindK: err = %v, want context.Canceled", err)
	}
	if _, err := Membership(ctx, q, [][2]int{}); err != nil {
		// Membership with no pairs performs no probes; cancellation is
		// only observed per batch, so either outcome is acceptable here.
		t.Logf("empty membership under cancel: %v", err)
	}
}

func TestFindKMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	r1 := randRelation(rng, "r1", 40, 3, 0, 3, 5)
	r2 := randRelation(rng, "r2", 40, 3, 0, 3, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}}
	for _, delta := range []int{1, 10, 100} {
		got, err := FindK(context.Background(), q, delta, FindKBinary)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.FindK(q, delta, core.FindKBinary)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != want.K {
			t.Errorf("delta %d: facade k=%d, core k=%d", delta, got.K, want.K)
		}
		gotAtMost, err := FindKAtMost(context.Background(), q, delta, FindKBinary)
		if err != nil {
			t.Fatal(err)
		}
		wantAtMost, err := core.FindKAtMost(q, delta, core.FindKBinary)
		if err != nil {
			t.Fatal(err)
		}
		if gotAtMost.K != wantAtMost.K {
			t.Errorf("delta %d at-most: facade k=%d, core k=%d", delta, gotAtMost.K, wantAtMost.K)
		}
	}
}

// TestMembershipAgreesWithRun probes every joined pair through Membership
// and requires members and skyline to coincide in both directions: every
// skyline pair is a member, and every member is in the skyline.
func TestMembershipAgreesWithRun(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(313))
	r1 := randRelation(rng, "r1", 25, 3, 0, 3, 5)
	r2 := randRelation(rng, "r2", 25, 3, 0, 3, 5)
	// Ties on the small domain leave k = 4 with no members; k = 5 has one,
	// full dominance (k = 6) twenty.
	for k := 5; k <= 6; k++ {
		q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: k}
		res, err := Run(ctx, q, Options{Algorithm: Grouping})
		if err != nil {
			t.Fatal(err)
		}
		assertMembersAreSkyline(t, q, res, func(pairs [][2]int) ([]bool, error) { return Membership(ctx, q, pairs) })
	}
}

// assertMembersAreSkyline runs membership over every pair of q's join and
// checks members ⇔ res.Skyline pair by pair.
func assertMembersAreSkyline(t *testing.T, q Query, res *Result, membership func([][2]int) ([]bool, error)) {
	t.Helper()
	all, err := join.Pairs(q.R1, q.R2, q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int, len(all))
	for n, p := range all {
		pairs[n] = [2]int{p.Left, p.Right}
	}
	inSky := make(map[[2]int]bool, len(res.Skyline))
	for _, p := range res.Skyline {
		inSky[[2]int{p.Left, p.Right}] = true
	}
	members, err := membership(pairs)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, pr := range pairs {
		if members[i] != inSky[pr] {
			t.Errorf("pair %v: member %v, in the skyline %v", pr, members[i], inSky[pr])
		}
		if members[i] {
			n++
		}
	}
	if n != len(res.Skyline) || n == 0 {
		t.Errorf("%d of %d joined pairs are members, the skyline holds %d; want equal and nonzero", n, len(pairs), len(res.Skyline))
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"auto": Auto, "a": Auto,
		"naive": Naive, "n": Naive,
		"grouping": Grouping, "g": Grouping,
		"dominator": DominatorBased, "dominator-based": DominatorBased, "d": DominatorBased,
	} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := ParseFindKAlgorithm("bogo"); err == nil {
		t.Error("unknown find-k algorithm accepted")
	}
	if got, err := ParseFindKAlgorithm("binary"); err != nil || got != FindKBinary {
		t.Errorf("ParseFindKAlgorithm(binary) = %v, %v", got, err)
	}
}

func TestMaintainerViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	r1 := randRelation(rng, "r1", 30, 3, 0, 3, 6)
	r2 := randRelation(rng, "r2", 30, 3, 0, 3, 6)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 4}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != len(fresh.Skyline) {
		t.Errorf("maintainer holds %d tuples, fresh run %d", m.Len(), len(fresh.Skyline))
	}
}

func TestCascadeViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	legs := []*Relation{
		randRelation(rng, "l1", 15, 2, 1, 3, 5),
		randRelation(rng, "l2", 15, 2, 1, 3, 5),
		randRelation(rng, "l3", 15, 2, 1, 3, 5),
	}
	// Middle relations of a chain need the second key; rebuild the middle
	// leg with Key2 mirroring Key (relations are immutable once built).
	mid := make([]Tuple, legs[1].Len())
	for i := range mid {
		mid[i] = legs[1].Tuple(i)
		mid[i].Key2 = mid[i].Key
	}
	legs[1] = MustNewRelation("l2", legs[1].Local, legs[1].Agg, mid)
	q := CascadeQuery{Relations: legs, K: 6}
	naive, err := RunCascade(context.Background(), q, CascadeNaive)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := RunCascade(context.Background(), q, CascadePruned)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Skyline) != len(pruned.Skyline) {
		t.Errorf("cascade strategies disagree: %d vs %d", len(naive.Skyline), len(pruned.Skyline))
	}
}
