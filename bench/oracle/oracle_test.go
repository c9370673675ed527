package oracle

import (
	"strings"
	"testing"
	"time"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
)

// fixture returns a checker over a small mirror and a correct, fully
// decoded reply to its first standing query that has a non-empty answer.
func fixture(t *testing.T) (*Checker, Reply) {
	t.Helper()
	g, err := workload.New("dashboard", 5, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	c := New(workload.NewMirror(g.Datasets))
	for _, q := range g.Standing {
		want, err := c.Expected(q, [2]uint64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 2 {
			continue
		}
		r := Reply{
			Query: q, Count: len(want), Versions: [2]uint64{1, 1}, Source: "computed",
			Lo: [2]uint64{1, 1}, Hi: [2]uint64{1, 1}, Sources: []string{"computed"},
		}
		for _, p := range want {
			r.Pairs = append(r.Pairs, httpapi.PairJSON{Left: p.Left, Right: p.Right, Attrs: append([]float64(nil), p.Attrs...)})
		}
		return c, r
	}
	t.Fatal("no standing query has two or more pairs at this seed")
	return nil, Reply{}
}

func TestCorrectReplyPasses(t *testing.T) {
	c, r := fixture(t)
	if err := c.Check(r); err != nil {
		t.Fatal(err)
	}
	// The server's order is not part of the contract.
	r.Pairs[0], r.Pairs[1] = r.Pairs[1], r.Pairs[0]
	if err := c.Check(r); err != nil {
		t.Fatalf("reordered answer rejected: %v", err)
	}
}

func TestInjectedWrongAnswersFail(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Reply)
		want   string
	}{
		{"count", func(r *Reply) { r.Count++; r.Pairs = nil }, "counts"},
		{"missing pair", func(r *Reply) { r.Pairs = r.Pairs[1:]; r.Count-- }, "counts"},
		{"wrong id", func(r *Reply) { r.Pairs[0].Right += 100000 }, "recompute has"},
		{"wrong attr", func(r *Reply) { r.Pairs[0].Attrs[3] += 1e-9 }, "attrs"},
		{"count disagrees with list", func(r *Reply) { r.Count++ }, "lists"},
		{"version ahead of the mirror", func(r *Reply) { r.Versions[0] = 2 }, "mirror allows"},
		{"source", func(r *Reply) { r.Source = "cached" }, "source"},
	}
	for _, tc := range cases {
		c, r := fixture(t)
		tc.break_(&r)
		err := c.Check(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if _, err := c.CheckAll([]Reply{r}, time.Second); err == nil {
			t.Errorf("%s: CheckAll accepted the broken reply", tc.name)
		}
	}
}

// TestCheckAllBudget: with no budget left only the first and the last state
// are recomputed, and a wrong count at the last state is still caught.
func TestCheckAllBudget(t *testing.T) {
	g, err := workload.New("ingest", 2, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.NewMirror(g.Datasets)
	c := New(m)
	q := g.Standing[0]
	var replies []Reply
	for _, op := range g.Next().Clients[0] {
		if op.Kind == workload.Query {
			continue
		}
		v := m.Issue(op)
		m.Ack(op.Relation)
		versions := [2]uint64{v, 1}
		want, err := c.Expected(q, versions)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, Reply{
			Query: q, Count: len(want), Versions: versions, Source: "maintained",
			Lo: versions, Hi: versions, Sources: []string{"maintained"},
		})
	}
	rep, err := c.CheckAll(replies, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckedStates != 2 || rep.States != len(replies) {
		t.Fatalf("checked %d of %d states with no budget, want 2", rep.CheckedStates, rep.States)
	}
	if rep, err = c.CheckAll(replies, time.Minute); err != nil || rep.CheckedStates != rep.States {
		t.Fatalf("with budget: checked %d of %d states, err %v", rep.CheckedStates, rep.States, err)
	}
	replies[len(replies)-1].Count++
	if _, err := c.CheckAll(replies, 0); err == nil {
		t.Fatal("wrong count at the final state passed")
	}
}

// TestRecomputeMatchesNaive pins the oracle's own recompute path to the
// paper's join-then-filter baseline.
func TestRecomputeMatchesNaive(t *testing.T) {
	g, err := workload.New("adhoc", 9, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := dataset.New("r1", workload.Local, workload.Agg, g.Datasets[0].Tuples)
	r2, _ := dataset.New("r2", workload.Local, workload.Agg, g.Datasets[1].Tuples)
	for k := 9; k <= 11; k++ {
		fast, err := Recompute(r1, r2, k, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Recompute(r1, r2, k, core.Naive)
		if err != nil {
			t.Fatal(err)
		}
		var got []httpapi.PairJSON
		for _, p := range fast {
			got = append(got, httpapi.PairJSON{Left: p.Left, Right: p.Right, Attrs: p.Attrs})
		}
		if err := ComparePairs("grouping vs naive", got, slow); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}
