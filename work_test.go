package repro_test

import (
	"context"
	"testing"

	"repro/internal/core"
)

// workCounts is the deterministic work of one run: what no machine, clock
// or cache can move.
type workCounts struct {
	domTests      int64
	candidates    int
	ss1, sn1, nn1 int
	ss2, sn2, nn2 int
	answer        int
}

func countsOf(res *core.Result) workCounts {
	st := res.Stats
	return workCounts{
		domTests: st.DominationTests, candidates: st.Candidates,
		ss1: st.SS1, sn1: st.SN1, nn1: st.NN1,
		ss2: st.SS2, sn2: st.SN2, nn2: st.NN2,
		answer: len(res.Skyline),
	}
}

// TestDominatorWorkCounts pins the dominator arm's work at
// defaultQuery(1000), k = 10 and 11, serial and on two workers: a cold run
// with no resident and three runs on a fresh resident — the first holds
// its categorizations, the second reads them and holds its target sets,
// the third reads everything and builds nothing — all do exactly this
// work. A change that moves a number here moves the engine's work, and
// must say why.
func TestDominatorWorkCounts(t *testing.T) {
	want := map[int]workCounts{
		10: {domTests: 104512, candidates: 98, ss1: 1, sn1: 34, nn1: 965, ss2: 2, sn2: 25, nn2: 973, answer: 84},
		11: {domTests: 827860, candidates: 6372, ss1: 51, sn1: 204, nn1: 745, ss2: 55, sn2: 205, nn2: 740, answer: 4430},
	}
	base := defaultQuery(1000)
	ctx := context.Background()
	for _, k := range []int{10, 11} {
		q := base
		q.K = k
		for _, workers := range []int{0, 2} {
			o := core.ExecOptions{Algorithm: core.DominatorBased, Workers: workers}
			cold, err := core.Exec(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.NewResident(q)
			if err != nil {
				t.Fatal(err)
			}
			first, err := res.Exec(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			second, err := res.Exec(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			third, err := res.Exec(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			if third.Stats.DominatorTime != 0 {
				t.Errorf("k=%d workers=%d: the third run on the resident built target sets", k, workers)
			}
			for _, run := range []struct {
				name string
				res  *core.Result
			}{{"cold", cold}, {"first on resident", first}, {"second on resident", second}, {"third on resident", third}} {
				if got := countsOf(run.res); got != want[k] {
					t.Errorf("k=%d workers=%d %s: %+v, want %+v", k, workers, run.name, got, want[k])
				}
			}
		}
	}
}
