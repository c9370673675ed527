package service

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
)

// TestVerifyMatchesCore: the service's verification endpoint must vote
// exactly like the core primitive the simulator trusts, for both the
// strict (resident target-set checker) and non-strict (naive scan) arms.
func TestVerifyMatchesCore(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 60)

	rng := rand.New(rand.NewSource(606))
	width := oracle.R1.Local + oracle.R2.Local + oracle.R1.Agg
	vectors := make([][]float64, 12)
	for i := range vectors {
		vectors[i] = make([]float64, width)
		for j := range vectors[i] {
			vectors[i][j] = rng.Float64() * 10
		}
	}
	// Mix in real answer vectors so some verdicts are guaranteed "not
	// dominated" (a skyline member has no dominator).
	ans, err := core.Run(oracle, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && i < len(ans.Skyline); i++ {
		vectors = append(vectors, ans.Skyline[i].Attrs)
	}

	for _, aggName := range []string{"sum", "max"} {
		resp, err := s.Verify(ctx, VerifyRequest{
			R1: "r1", R2: "r2", K: oracle.K, Agg: aggName, Vectors: vectors,
		})
		if err != nil {
			t.Fatalf("%s: %v", aggName, err)
		}
		agg, err := join.ParseAggregator(aggName)
		if err != nil {
			t.Fatal(err)
		}
		q := oracle
		q.Spec.Agg = agg
		want, err := core.AnyDominatorsContext(ctx, q, vectors)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Dominated) != len(want) {
			t.Fatalf("%s: %d verdicts, want %d", aggName, len(resp.Dominated), len(want))
		}
		sawDominated := false
		for i := range want {
			if resp.Dominated[i] != want[i] {
				t.Fatalf("%s: verdict[%d] = %v, want %v", aggName, i, resp.Dominated[i], want[i])
			}
			sawDominated = sawDominated || want[i]
		}
		if !sawDominated {
			t.Fatalf("%s: degenerate test — no vector was dominated", aggName)
		}
	}

	st := s.Stats()
	if st.Verifies != 2 {
		t.Errorf("verifies counter = %d, want 2", st.Verifies)
	}
}

// TestVerifyCompactMatchesVectors: a batch sent in compact form gets the
// votes its recombined vectors get, for both aggregator arms.
func TestVerifyCompactMatchesVectors(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 60)
	// At full width k-dominance is plain dominance: the join has members.
	for _, aggName := range []string{"sum", "max"} {
		q := oracle
		var err error
		if q.Spec.Agg, err = join.ParseAggregator(aggName); err != nil {
			t.Fatal(err)
		}
		pairs, err := join.Pairs(q.R1, q.R2, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		c := join.Split(pairs, q.R1.Local, q.R2.Local)
		if len(c.Lefts)+len(c.Rights) >= len(pairs) {
			t.Fatalf("degenerate test: %d pairs over %d distinct rows", len(pairs), len(c.Lefts)+len(c.Rights))
		}
		vectors := make([][]float64, len(pairs))
		for i, p := range pairs {
			vectors[i] = p.Attrs
		}
		req := VerifyRequest{R1: "r1", R2: "r2", K: q.Width(), Agg: aggName, Vectors: vectors}
		want, err := s.Verify(ctx, req)
		if err != nil {
			t.Fatalf("%s: vectors: %v", aggName, err)
		}
		req.Vectors, req.Candidates = nil, &c
		got, err := s.Verify(ctx, req)
		if err != nil {
			t.Fatalf("%s: candidates: %v", aggName, err)
		}
		if !slices.Equal(got.Dominated, want.Dominated) {
			t.Fatalf("%s: compact votes %v, vector votes %v", aggName, got.Dominated, want.Dominated)
		}
		if !slices.Contains(want.Dominated, false) || !slices.Contains(want.Dominated, true) {
			t.Fatalf("%s: degenerate test — one verdict for all %d vectors", aggName, len(pairs))
		}
	}
}

func TestVerifyErrors(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{SweepInterval: -1})
	registerPair(t, s, 20)

	if _, err := s.Verify(ctx, VerifyRequest{R1: "nope", R2: "r2", K: 5, Vectors: [][]float64{{1}}}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, err := s.Verify(ctx, VerifyRequest{R1: "r1", R2: "r2", K: 5, Vectors: [][]float64{{1, 2}}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wrong vector width: %v", err)
	}
	if _, err := s.Verify(ctx, VerifyRequest{R1: "r1", R2: "r2", K: 99, Vectors: [][]float64{{1, 2, 3, 4, 5, 6, 7}}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("k out of range: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 30)

	// Warm a cache entry and a watch on the doomed relation.
	if _, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: oracle.K}); err != nil {
		t.Fatal(err)
	}
	w, err := s.Watch(ctx, QueryRequest{R1: "r1", R2: "r2", K: oracle.K})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	<-w.Events() // snapshot

	if err := s.Unregister("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: oracle.K}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("query after unregister: %v", err)
	}
	for range w.Events() {
	}
	if !errors.Is(w.Err(), ErrUnknownRelation) {
		t.Fatalf("watch should end with ErrUnknownRelation, got %v", w.Err())
	}
	if err := s.Unregister("r1"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("double unregister: %v", err)
	}

	// The name is reusable, and the untouched relation survived.
	if _, err := s.Register("r1", testRelation("r1", 25, 3, 1, 5, 99)); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if _, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: oracle.K}); err != nil {
		t.Fatalf("query after re-register: %v", err)
	}
}

// TestVerifyValidatesBeforeAdmission: with the only slot held and no
// queue, a malformed verification request is rejected for what it is —
// unknown relation, bad k, wrong vector width, bad join spelling, a
// malformed compact batch, both forms at once — never as overload (nor
// with a panic), and the rejected counter stays 0, exactly like Query.
// Only the well-formed requests are refused with ErrOverloaded.
func TestVerifyValidatesBeforeAdmission(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 20)
	s.sched = newScheduler(1, 0)
	release, err := s.sched.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	vectors := [][]float64{make([]float64, oracle.Width())}
	l1, l2, a := oracle.R1.Local, oracle.R2.Local, oracle.R1.Agg
	// compact is a well-formed one-vector batch, changed by edit.
	compact := func(edit func(c *join.Components)) *join.Components {
		c := &join.Components{
			Lefts: [][]float64{make([]float64, l1)}, Rights: [][]float64{make([]float64, l2)},
			Pairs: [][2]int{{0, 0}}, Aggs: [][]float64{make([]float64, a)},
		}
		edit(c)
		return c
	}
	verify := func(c *join.Components) VerifyRequest {
		return VerifyRequest{R1: "r1", R2: "r2", K: oracle.K, Candidates: c}
	}
	for _, tc := range []struct {
		name string
		req  VerifyRequest
		want error
	}{
		{"unknown relation", VerifyRequest{R1: "nope", R2: "r2", K: oracle.K, Vectors: vectors}, ErrUnknownRelation},
		{"bad k", VerifyRequest{R1: "r1", R2: "r2", K: oracle.Width() + 1, Vectors: vectors}, ErrBadRequest},
		{"wrong width", VerifyRequest{R1: "r1", R2: "r2", K: oracle.K, Vectors: [][]float64{{1}}}, ErrBadRequest},
		{"bad join", VerifyRequest{R1: "r1", R2: "r2", K: oracle.K, Join: "nope", Vectors: vectors}, ErrBadRequest},
		{"index past its table", verify(compact(func(c *join.Components) { c.Pairs[0][1] = 1 })), ErrBadRequest},
		{"negative index", verify(compact(func(c *join.Components) { c.Pairs[0][0] = -1 })), ErrBadRequest},
		{"short left row", verify(compact(func(c *join.Components) { c.Lefts[0] = c.Lefts[0][1:] })), ErrBadRequest},
		{"long right row", verify(compact(func(c *join.Components) { c.Rights[0] = append(c.Rights[0], 0) })), ErrBadRequest},
		{"short aggregate row", verify(compact(func(c *join.Components) { c.Aggs[0] = nil })), ErrBadRequest},
		{"pairs without aggregates", verify(compact(func(c *join.Components) { c.Pairs = append(c.Pairs, [2]int{0, 0}) })), ErrBadRequest},
		{"both forms", VerifyRequest{R1: "r1", R2: "r2", K: oracle.K, Vectors: vectors, Candidates: compact(func(*join.Components) {})}, ErrBadRequest},
	} {
		if _, err := s.Verify(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s under saturation: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if got := s.Stats().Rejected; got != 0 {
		t.Errorf("rejected counter = %d after malformed requests, want 0", got)
	}
	for _, req := range []VerifyRequest{
		{R1: "r1", R2: "r2", K: oracle.K, Vectors: vectors},
		verify(compact(func(*join.Components) {})),
	} {
		if _, err := s.Verify(ctx, req); !errors.Is(err, ErrOverloaded) {
			t.Errorf("well-formed request under saturation: err = %v, want ErrOverloaded", err)
		}
	}
}
