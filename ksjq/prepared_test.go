package ksjq

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/join"
)

// collectStream drains a stream into a sorted slice, failing on error.
func collectStream(t *testing.T, seq func(func(Pair, error) bool)) []Pair {
	t.Helper()
	var out []Pair
	for p, err := range seq {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Left != b[i].Left || a[i].Right != b[i].Right ||
			!reflect.DeepEqual(a[i].Attrs, b[i].Attrs) {
			return false
		}
	}
	return true
}

// TestPreparedEquivalenceOracle pins the three evaluation surfaces to one
// another: Run, Prepared.Run and a Stream collected to completion must be
// byte-identical across all six join conditions × three algorithms, plus
// the parallel grouping path.
func TestPreparedEquivalenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	conds := []Condition{Equality, Cross, BandLess, BandLessEq, BandGreater, BandGreaterEq}
	ctx := context.Background()
	for _, cond := range conds {
		for trial := 0; trial < 4; trial++ {
			agg := rng.Intn(3)
			r1 := randRelation(rng, "r1", 10+rng.Intn(30), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
			r2 := randRelation(rng, "r2", 10+rng.Intn(30), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
			q := Query{R1: r1, R2: r2, Spec: Spec{Cond: cond, Agg: Sum}}
			q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)

			prepared, err := Prepare(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{Naive, Grouping, DominatorBased} {
				opts := Options{Algorithm: alg}
				cold, err := Run(ctx, q, opts)
				if err != nil {
					t.Fatalf("cond %v alg %v: Run: %v", cond, alg, err)
				}
				// NoCache isolates the three surfaces from the memo (the
				// memo is pinned separately below).
				warm, err := prepared.Run(ctx, Options{Algorithm: alg, NoCache: true})
				if err != nil {
					t.Fatalf("cond %v alg %v: Prepared.Run: %v", cond, alg, err)
				}
				if !samePairs(cold.Skyline, warm.Skyline) {
					t.Fatalf("cond %v alg %v: Prepared.Run diverged from Run", cond, alg)
				}
				streamed := collectStream(t, prepared.Stream(ctx, opts))
				if !samePairs(cold.Skyline, streamed) {
					t.Fatalf("cond %v alg %v: Stream diverged from Run (%d vs %d pairs)",
						cond, alg, len(streamed), len(cold.Skyline))
				}
				memo, err := prepared.Run(ctx, Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if !samePairs(cold.Skyline, memo.Skyline) {
					t.Fatalf("cond %v alg %v: memoized Prepared.Run diverged", cond, alg)
				}
			}
			// Parallel verification and the package-level stream surface.
			par, err := prepared.Run(ctx, Options{Algorithm: Grouping, Workers: 4, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(ctx, q, Options{Algorithm: Grouping})
			if err != nil {
				t.Fatal(err)
			}
			if !samePairs(want.Skyline, par.Skyline) {
				t.Fatalf("cond %v: parallel Prepared.Run diverged", cond)
			}
			pkgStream := collectStream(t, Stream(ctx, q, Options{Workers: 2}))
			if !samePairs(want.Skyline, pkgStream) {
				t.Fatalf("cond %v: package-level Stream diverged", cond)
			}
		}
	}
}

// TestPreparedVaryingK pins Options.K: one snapshot serves every
// dominance level, each matching a cold run at that k.
func TestPreparedVaryingK(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	r1 := randRelation(rng, "r1", 40, 3, 1, 4, 5)
	r2 := randRelation(rng, "r2", 40, 3, 1, 4, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality, Agg: Sum}}
	q.K = q.KMin()
	ctx := context.Background()
	prepared, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for k := q.KMin(); k <= q.Width(); k++ {
		qk := q
		qk.K = k
		want, err := Run(ctx, qk, Options{Algorithm: Grouping})
		if err != nil {
			t.Fatal(err)
		}
		got, err := prepared.Run(ctx, Options{Algorithm: Grouping, K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !samePairs(want.Skyline, got.Skyline) {
			t.Fatalf("k=%d: prepared run diverged", k)
		}
	}
}

// TestPreparedMemo pins the answer memo: identical repeated runs return
// the identical Result, NoCache recomputes and leaves the memo as it was,
// and Limit bypasses it.
func TestPreparedMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	r1 := randRelation(rng, "r1", 40, 3, 0, 4, 5)
	r2 := randRelation(rng, "r2", 40, 3, 0, 4, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 5}
	ctx := context.Background()
	p, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Run(ctx, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run(ctx, Options{Algorithm: DominatorBased}) // memo ignores algorithm
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("repeated identical run did not hit the memo")
	}
	recomputed, err := p.Run(ctx, Options{Algorithm: Grouping, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if first == recomputed {
		t.Fatal("NoCache run returned the memoized Result")
	}
	if again, err := p.Run(ctx, Options{Algorithm: Grouping}); err != nil || again != first {
		t.Fatalf("after a NoCache run the memo serves another Result (err %v): NoCache wrote the memo", err)
	}
	limited, err := p.Run(ctx, Options{Algorithm: Grouping, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if limited == first || len(limited.Skyline) > 1 {
		t.Fatalf("limited run: %d pairs, memo hit %v", len(limited.Skyline), limited == first)
	}
}

// TestPreparedMemoHitAllocs pins the memo hit at exactly zero allocations
// (BENCH_pr10.json's PreparedRun figure, which the retired bench-compare
// gate used to watch).
func TestPreparedMemoHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	r1 := randRelation(rng, "r1", 40, 3, 0, 4, 5)
	r2 := randRelation(rng, "r2", 40, 3, 0, 4, 5)
	ctx := context.Background()
	p, err := Prepare(ctx, Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Run(ctx, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if res, err := p.Run(ctx, Options{Algorithm: Grouping}); err != nil || res != first {
			t.Fatalf("memo hit: %v, %v", res, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Prepared.Run memo hit costs %v allocations, want exactly 0", allocs)
	}
}

// TestPreparedStaleAndRebind pins the invalidation handshake: mutate a
// relation through a maintainer-style external append, observe
// ErrStaleResident from every surface, Rebind, observe recovery.
func TestPreparedStaleAndRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	r1 := randRelation(rng, "r1", 30, 3, 0, 4, 5)
	r2 := randRelation(rng, "r2", 30, 3, 0, 4, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 5}
	ctx := context.Background()
	p, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stale() {
		t.Fatal("fresh Prepared reports stale")
	}
	if _, err := p.Run(ctx, Options{Algorithm: Grouping}); err != nil {
		t.Fatal(err)
	}

	// The maintained-insert flow: an external writer appends directly.
	if _, err := r1.Append(Tuple{Key: "g0", Attrs: []float64{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if !p.Stale() {
		t.Fatal("Prepared not stale after relation growth")
	}
	if _, err := p.Run(ctx, Options{Algorithm: Grouping}); !errors.Is(err, ErrStaleResident) {
		t.Fatalf("Run on stale Prepared: err = %v, want ErrStaleResident", err)
	}
	if _, err := p.Membership(ctx, [][2]int{{0, 0}}); !errors.Is(err, ErrStaleResident) {
		t.Fatalf("Membership on stale Prepared: err = %v, want ErrStaleResident", err)
	}
	if _, err := p.FindK(ctx, 1, FindKBinary); !errors.Is(err, ErrStaleResident) {
		t.Fatalf("FindK on stale Prepared: err = %v, want ErrStaleResident", err)
	}
	for _, err := range p.Stream(ctx, Options{}) {
		if !errors.Is(err, ErrStaleResident) {
			t.Fatalf("Stream on stale Prepared: err = %v, want ErrStaleResident", err)
		}
	}

	if err := p.Rebind(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Stale() {
		t.Fatal("Prepared still stale after Rebind")
	}
	want, err := Run(ctx, q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(ctx, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatalf("Run after Rebind: %v", err)
	}
	if !samePairs(want.Skyline, got.Skyline) {
		t.Fatal("post-Rebind answer diverged from cold run")
	}
}

// TestPreparedStaleAfterEqualLengthChurn pins the staleness check on a
// mutation that keeps the length: a delete then an insert. A Prepared
// must refuse it — its memo and its held target sets describe rows that
// are gone — even for a k whose answer it has memoized.
func TestPreparedStaleAfterEqualLengthChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	r1 := randRelation(rng, "r1", 30, 3, 0, 4, 5)
	r2 := randRelation(rng, "r2", 30, 3, 0, 4, 5)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 5}
	ctx := context.Background()
	p, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(ctx, Options{Algorithm: DominatorBased}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Delete(4); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Append(Tuple{Key: "g0", Attrs: []float64{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if !p.Stale() {
		t.Fatal("Prepared not stale after a delete and an insert")
	}
	if _, err := p.Run(ctx, Options{Algorithm: DominatorBased}); !errors.Is(err, ErrStaleResident) {
		t.Fatalf("Run after delete+insert: err = %v, want ErrStaleResident", err)
	}
}

// TestStreamEarlyBreakDoesLessWork is the acceptance assertion: breaking
// a stream early must do strictly fewer domination tests than running the
// same query to completion.
func TestStreamEarlyBreakDoesLessWork(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	r1 := randRelation(rng, "r1", 150, 3, 0, 3, 40)
	r2 := randRelation(rng, "r2", 150, 3, 0, 3, 40)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 6}
	ctx := context.Background()

	full, err := Run(ctx, q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Skyline) < 3 {
		t.Fatalf("workload too small to observe early stop: %d pairs", len(full.Skyline))
	}
	if full.Stats.DominationTests == 0 {
		t.Fatal("full run did no domination tests; workload cannot discriminate")
	}

	var st Stats
	n := 0
	for _, err := range Stream(ctx, q, Options{Algorithm: Grouping, Stats: &st}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 1 {
			break
		}
	}
	if st.DominationTests >= full.Stats.DominationTests {
		t.Fatalf("early break did %d domination tests, full run %d — no work was saved",
			st.DominationTests, full.Stats.DominationTests)
	}
}

// TestStreamLimit pins Options.Limit across surfaces: the stream yields
// exactly Limit pairs, each a member of the full answer, and the engine
// does less verification than the uncapped run.
func TestStreamLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	r1 := randRelation(rng, "r1", 100, 3, 0, 3, 40)
	r2 := randRelation(rng, "r2", 100, 3, 0, 3, 40)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 6}
	ctx := context.Background()
	full, err := Run(ctx, q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Skyline) < 4 {
		t.Fatalf("workload too small: %d pairs", len(full.Skyline))
	}
	members := make(map[[2]int]bool, len(full.Skyline))
	for _, p := range full.Skyline {
		members[[2]int{p.Left, p.Right}] = true
	}

	limited, err := Run(ctx, q, Options{Algorithm: Grouping, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Skyline) != 3 {
		t.Fatalf("limited run returned %d pairs, want 3", len(limited.Skyline))
	}
	for _, p := range limited.Skyline {
		if !members[[2]int{p.Left, p.Right}] {
			t.Fatalf("limited run returned non-member (%d,%d)", p.Left, p.Right)
		}
	}
	if limited.Stats.DominationTests >= full.Stats.DominationTests {
		t.Fatalf("limit did not reduce verification: %d vs %d tests",
			limited.Stats.DominationTests, full.Stats.DominationTests)
	}

	// Limit on a non-streaming algorithm truncates the canonical answer.
	naive, err := Run(ctx, q, Options{Algorithm: Naive, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(naive.Skyline, full.Skyline[:3]) {
		t.Fatal("naive limit is not a prefix of the canonical answer")
	}

	var streamed []Pair
	for p, err := range Stream(ctx, q, Options{Limit: 3}) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, p)
	}
	if len(streamed) != 3 {
		t.Fatalf("stream with limit yielded %d pairs, want 3", len(streamed))
	}
}

// TestStreamRunsOnCallersGoroutine pins the push iterator: a serial
// stream runs the engine inside the range loop, so the loop body sees no
// goroutine that was not there before the range began.
func TestStreamRunsOnCallersGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	r1 := randRelation(rng, "r1", 60, 3, 0, 3, 40)
	r2 := randRelation(rng, "r2", 60, 3, 0, 3, 40)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 6}
	before := runtime.NumGoroutine()
	n := 0
	for _, err := range Stream(context.Background(), q, Options{Algorithm: Grouping}) {
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("tuple %d: %d goroutines inside the loop, %d before the range", n, got, before)
		}
		n++
	}
	if n == 0 {
		t.Fatal("stream yielded nothing: the goroutine count was never observed")
	}
}

// TestStreamBreakAfterFirst pins the iterator contract on every arm, serial
// and on the pool: breaking after the first element never makes the engine
// call yield again (Go panics on a continued iteration), Options.Stats is
// filled, and a rejected run yields its error exactly once.
func TestStreamBreakAfterFirst(t *testing.T) {
	// A Cartesian product with two aggregate attributes has one cell, the
	// verified SS1 ⋈ SS2 cell; at over 256 candidates (one pool chunk) the
	// pool verifies it when Workers = 2.
	rng := rand.New(rand.NewSource(510))
	r1 := randRelation(rng, "r1", 80, 3, 2, 1, 40)
	r2 := randRelation(rng, "r2", 80, 3, 2, 1, 40)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Cross, Agg: Sum}, K: 8}
	ctx := context.Background()
	full, err := Run(ctx, q, Options{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	if cell := full.Stats.SS1 * full.Stats.SS2; cell <= 256 || len(full.Skyline) < 2 {
		t.Fatalf("instance too small: %d-candidate cell, %d-tuple answer", cell, len(full.Skyline))
	}
	for _, alg := range []Algorithm{Naive, Grouping, DominatorBased} {
		for _, workers := range []int{1, 2} {
			var st Stats
			n := 0
			var errs []error
			for _, err := range Stream(ctx, q, Options{Algorithm: alg, Workers: workers, Stats: &st}) {
				n++
				if err != nil {
					errs = append(errs, err)
					continue
				}
				break
			}
			if alg == Naive && workers > 1 {
				if n != 1 || len(errs) != 1 || !errors.Is(errs[0], ErrOptionConflict) {
					t.Errorf("%v workers=%d: %d elements, errors %v; want ErrOptionConflict once", alg, workers, n, errs)
				}
				continue
			}
			if n != 1 || len(errs) != 0 {
				t.Errorf("%v workers=%d: %d elements, errors %v; want one tuple", alg, workers, n, errs)
			}
			if st == (Stats{}) {
				t.Errorf("%v workers=%d: Options.Stats not filled after the break", alg, workers)
			}
		}
	}
}

// TestStreamCancellation pins the iterator's context contract: a
// cancelled context surfaces as the stream's final error, with no
// goroutine left running (the race detector and goroutine-leak checks in
// core cover the engine side).
func TestStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(508))
	r1 := randRelation(rng, "r1", 80, 3, 0, 2, 8)
	r2 := randRelation(rng, "r2", 80, 3, 0, 2, 8)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}, K: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last error
	for _, err := range Stream(ctx, q, Options{}) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("cancelled stream ended with %v, want context.Canceled", last)
	}
}

// TestPreparedFindKMatchesCold pins the resident-backed find-k and
// membership surfaces to their cold counterparts.
func TestPreparedFindKMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	r1 := randRelation(rng, "r1", 50, 3, 0, 4, 6)
	r2 := randRelation(rng, "r2", 50, 3, 0, 4, 6)
	q := Query{R1: r1, R2: r2, Spec: Spec{Cond: Equality}}
	ctx := context.Background()
	p, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []FindKAlgorithm{FindKNaive, FindKRange, FindKBinary} {
		for _, delta := range []int{1, 5, 25} {
			cold, err := FindK(ctx, q, delta, alg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := p.FindK(ctx, delta, alg)
			if err != nil {
				t.Fatal(err)
			}
			if cold.K != warm.K {
				t.Fatalf("alg %v delta %d: prepared FindK = %d, cold = %d", alg, delta, warm.K, cold.K)
			}
			coldAtMost, err := FindKAtMost(ctx, q, delta, alg)
			if err != nil {
				t.Fatal(err)
			}
			warmAtMost, err := p.FindKAtMost(ctx, delta, alg)
			if err != nil {
				t.Fatal(err)
			}
			if coldAtMost.K != warmAtMost.K {
				t.Fatalf("alg %v delta %d: prepared FindKAtMost = %d, cold = %d",
					alg, delta, warmAtMost.K, coldAtMost.K)
			}
		}
	}

	// Below full dominance this instance's skyline is empty, which would
	// leave the members ⇔ skyline check below with nothing to tell apart.
	qk := q
	qk.K = qk.Width()
	pk, err := Prepare(ctx, qk)
	if err != nil {
		t.Fatal(err)
	}
	all, err := join.Pairs(qk.R1, qk.R2, qk.Spec)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int, len(all))
	for i, p := range all {
		pairs[i] = [2]int{p.Left, p.Right}
	}
	cold, err := Membership(ctx, qk, pairs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pk.Membership(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("prepared membership diverged from cold membership")
	}
	res, err := pk.Run(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertMembersAreSkyline(t, qk, res, func(pairs [][2]int) ([]bool, error) { return pk.Membership(ctx, pairs) })
}
