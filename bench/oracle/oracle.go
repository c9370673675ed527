// Package oracle checks the server's answers. Every reply's versions and
// source are checked against what the mirror allows; counts — and, for the
// replies the load generator decoded in full, every pair's ids and
// attributes — are compared with an in-process core.Exec recompute over
// the mirror's rows at the versions the reply names. A mismatch is an
// error, and the benchmark exits non-zero on it: a wrong answer is not a
// metric.
package oracle

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/join"
)

// Reply is what the load generator keeps of one /v1/query answer.
type Reply struct {
	Query    workload.StandingQuery
	Count    int
	Versions [2]uint64
	Source   string
	// Lo and Hi bracket the versions a correct server may report: the
	// acknowledged versions when the request left and the issued versions
	// when the reply arrived. With one closed-loop client they coincide.
	Lo, Hi [2]uint64
	// Sources lists the sources a correct server may report.
	Sources []string
	// Pairs is the decoded skyline; nil unless the reply was sampled for a
	// pair-for-pair comparison.
	Pairs []httpapi.PairJSON
}

// Envelope checks the parts of a reply that need no recompute.
func Envelope(r Reply) error {
	for i := range r.Versions {
		if r.Versions[i] < r.Lo[i] || r.Versions[i] > r.Hi[i] {
			return fmt.Errorf("oracle: %s answered at versions %v, mirror allows %v..%v", r.Query.Class, r.Versions, r.Lo, r.Hi)
		}
	}
	if !slices.Contains(r.Sources, r.Source) {
		return fmt.Errorf("oracle: %s answered from source %q, expected one of %v", r.Query.Class, r.Source, r.Sources)
	}
	if r.Pairs != nil && len(r.Pairs) != r.Count {
		return fmt.Errorf("oracle: %s reports count %d but lists %d pairs", r.Query.Class, r.Count, len(r.Pairs))
	}
	return nil
}

// Checker recomputes expected answers from a mirror.
type Checker struct {
	mirror *workload.Mirror
}

// New builds a checker over the mirror.
func New(m *workload.Mirror) *Checker { return &Checker{mirror: m} }

// Expected recomputes q's answer over the mirror at the given versions.
func (c *Checker) Expected(q workload.StandingQuery, versions [2]uint64) ([]join.Pair, error) {
	rels := make([]*dataset.Relation, 2)
	for i, name := range [2]string{q.R1, q.R2} {
		rows, err := c.mirror.Rows(name, versions[i])
		if err != nil {
			return nil, err
		}
		// dataset.New copies the rows, so the mirror's cursor may move on.
		if rels[i], err = dataset.New(name, workload.Local, workload.Agg, rows); err != nil {
			return nil, err
		}
	}
	return Recompute(rels[0], rels[1], q.K, core.Grouping)
}

// Recompute runs one equality-join, sum-aggregate query in process.
func Recompute(r1, r2 *dataset.Relation, k int, alg core.Algorithm) ([]join.Pair, error) {
	res, err := core.Exec(context.Background(), core.Query{
		R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: k,
	}, core.ExecOptions{Algorithm: alg})
	if err != nil {
		return nil, err
	}
	return res.Skyline, nil
}

// Check compares one reply with the recompute at its own versions.
func (c *Checker) Check(r Reply) error {
	if err := Envelope(r); err != nil {
		return err
	}
	want, err := c.Expected(r.Query, r.Versions)
	if err != nil {
		return err
	}
	return compare(r, want)
}

// compare checks the count and, when the reply was decoded, every pair.
func compare(r Reply, want []join.Pair) error {
	if r.Count != len(want) {
		return fmt.Errorf("oracle: %s at versions %v: server counts %d pairs, recompute %d", r.Query.Class, r.Versions, r.Count, len(want))
	}
	if r.Pairs == nil {
		return nil
	}
	return ComparePairs(fmt.Sprintf("%s at versions %v", r.Query.Class, r.Versions), r.Pairs, want)
}

// ComparePairs checks ids and attributes pair for pair. The server's order
// is not part of the contract; both sides are compared in (left, right)
// order.
func ComparePairs(what string, got []httpapi.PairJSON, want []join.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %s: server lists %d pairs, recompute %d", what, len(got), len(want))
	}
	got = slices.Clone(got)
	sort.Slice(got, func(i, j int) bool {
		if got[i].Left != got[j].Left {
			return got[i].Left < got[j].Left
		}
		return got[i].Right < got[j].Right
	})
	for i, w := range want {
		g := got[i]
		if g.Left != w.Left || g.Right != w.Right {
			return fmt.Errorf("oracle: %s: pair %d is (%d,%d), recompute has (%d,%d)", what, i, g.Left, g.Right, w.Left, w.Right)
		}
		if !slices.Equal(g.Attrs, w.Attrs) {
			return fmt.Errorf("oracle: %s: pair (%d,%d) has attrs %v, recompute %v", what, g.Left, g.Right, g.Attrs, w.Attrs)
		}
	}
	return nil
}

// Report says how much of a run CheckAll covered.
type Report struct {
	Replies, States               int
	CheckedReplies, CheckedStates int
}

// CheckAll checks every reply's envelope, then recomputes as many distinct
// (query, versions) states as fit in the budget — evenly spread over the
// run and always including the last — and checks every reply observed at
// those states. The budget bounds the benchmark's own run time: a workload
// whose every reply sits at a state of its own (ingest) cannot afford a
// recompute per reply.
func (c *Checker) CheckAll(replies []Reply, budget time.Duration) (Report, error) {
	type state struct {
		class    string
		versions [2]uint64
	}
	byState := make(map[state][]int)
	for i, r := range replies {
		if err := Envelope(r); err != nil {
			return Report{}, err
		}
		s := state{r.Query.Class, r.Versions}
		byState[s] = append(byState[s], i)
	}
	states := make([]state, 0, len(byState))
	for s := range byState {
		states = append(states, s)
	}
	// Versions only grow, so ordering by their sum walks the mirror's
	// cursors forward.
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if sa, sb := a.versions[0]+a.versions[1], b.versions[0]+b.versions[1]; sa != sb {
			return sa < sb
		}
		if a.versions != b.versions {
			return a.versions[0] < b.versions[0]
		}
		return a.class < b.class
	})
	rep := Report{Replies: len(replies), States: len(states)}
	start := time.Now()
	for i := 0; i < len(states); {
		s := states[i]
		idx := byState[s]
		want, err := c.Expected(replies[idx[0]].Query, s.versions)
		if err != nil {
			return rep, err
		}
		for _, ri := range idx {
			if err := compare(replies[ri], want); err != nil {
				return rep, err
			}
		}
		rep.CheckedStates++
		rep.CheckedReplies += len(idx)
		if i == len(states)-1 {
			break
		}
		// Spend what is left of the budget evenly over what is left of the
		// run, at the average cost seen so far.
		per := time.Since(start) / time.Duration(rep.CheckedStates)
		afford := int((budget - time.Since(start)) / max(per, 1))
		left := len(states) - 1 - i
		stride := 1
		if afford < left {
			stride = left
			if afford > 0 {
				stride = (left + afford - 1) / afford
			}
		}
		i = min(i+stride, len(states)-1)
	}
	return rep, nil
}
