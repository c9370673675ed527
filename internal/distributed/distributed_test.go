package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

func assertSameAnswer(t *testing.T, label string, got *Result, want *core.Result) {
	t.Helper()
	if len(got.Skyline) != len(want.Skyline) {
		t.Fatalf("%s: %d skylines, want %d", label, len(got.Skyline), len(want.Skyline))
	}
	for i := range want.Skyline {
		g, w := got.Skyline[i], want.Skyline[i]
		if g.Left != w.Left || g.Right != w.Right {
			t.Fatalf("%s: skyline[%d] = (%d,%d), want (%d,%d)", label, i, g.Left, g.Right, w.Left, w.Right)
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 25; trial++ {
		agg := rng.Intn(2)
		local := 2 + rng.Intn(2)
		groups := 1 + rng.Intn(8)
		mk := func(seed int64) *dataset.Relation {
			return datagen.MustGenerate(datagen.Config{
				Name: "r", N: 10 + rng.Intn(40), Local: local, Agg: agg,
				Groups: groups, Dist: datagen.Independent, Seed: seed,
			})
		}
		q := core.Query{
			R1: mk(int64(trial*2 + 1)), R2: mk(int64(trial*2 + 2)),
			Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
		}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
		serial, err := core.Run(q, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 2, 3, 5, 16} {
			dist, err := Run(q, nodes)
			if err != nil {
				t.Fatalf("trial %d nodes %d: %v", trial, nodes, err)
			}
			assertSameAnswer(t, fmt.Sprintf("trial %d nodes=%d k=%d g=%d", trial, nodes, q.K, groups), dist, serial)
		}
	}
}

// localCandidates is round 1 computed apart from Rounds: each node's
// local skyline over its key partition, in partition-local ids.
func localCandidates(t *testing.T, q core.Query, nodes int) [][]join.Pair {
	t.Helper()
	out := make([][]join.Pair, nodes)
	for n := range out {
		part := func(r *dataset.Relation) []dataset.Tuple {
			var ts []dataset.Tuple
			for i := 0; i < r.Len(); i++ {
				if NodeOf(r.Key(i), nodes) == n {
					ts = append(ts, r.Tuple(i))
				}
			}
			return ts
		}
		t1, t2 := part(q.R1), part(q.R2)
		if len(t1) == 0 || len(t2) == 0 {
			continue
		}
		pq := q
		pq.R1 = dataset.MustNew(q.R1.Name, q.R1.Local, q.R1.Agg, t1)
		pq.R2 = dataset.MustNew(q.R2.Name, q.R2.Local, q.R2.Agg, t2)
		res, err := core.Run(pq, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = res.Skyline
	}
	return out
}

// shippedFloats is what round 2 ships over the given local candidates,
// every verifier being sent every other node's: joined is the count when
// each candidate goes as its whole vector, compact when each node's
// distinct left and right rows go once plus each candidate's aggregates.
func shippedFloats(q core.Query, locals [][]join.Pair) (joined, compact int) {
	participants := 0
	for _, c := range locals {
		if c != nil {
			participants++
		}
	}
	if participants < 2 {
		return 0, 0
	}
	for _, c := range locals {
		lefts, rights := map[int]bool{}, map[int]bool{}
		for _, p := range c {
			lefts[p.Left], rights[p.Right] = true, true
		}
		// Every other participant verifies node n's candidates.
		joined += (participants - 1) * len(c) * q.Width()
		compact += (participants - 1) * (len(lefts)*q.R1.Local + len(rights)*q.R2.Local + len(c)*q.R1.Agg)
	}
	return joined, compact
}

// TestDistributedStats pins the two-round accounting: candidates per node
// are round 1's local skylines, messages come in request/verdict pairs,
// and the floats shipped are exactly the compact form's — each node's
// distinct rows once per verifier plus each candidate's aggregates, not
// the joined vectors.
func TestDistributedStats(t *testing.T) {
	q := core.Query{
		R1: datagen.MustGenerate(datagen.Config{
			Name: "r1", N: 100, Local: 3, Agg: 1, Groups: 8, Seed: 1,
		}),
		R2: datagen.MustGenerate(datagen.Config{
			Name: "r2", N: 100, Local: 3, Agg: 1, Groups: 8, Seed: 2,
		}),
		Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
		K:    6,
	}
	res, err := Run(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Nodes != 4 || len(st.CandidatesPerNode) != 4 {
		t.Errorf("stats shape: %+v", st)
	}
	locals := localCandidates(t, q, 4)
	totalCand := 0
	for n, c := range st.CandidatesPerNode {
		if c != len(locals[n]) {
			t.Errorf("node %d: %d candidates, its local skyline has %d", n, c, len(locals[n]))
		}
		totalCand += c
	}
	if totalCand < len(res.Skyline) {
		t.Errorf("candidates %d < answer %d: local round must over-approximate", totalCand, len(res.Skyline))
	}
	if totalCand > 0 && st.MessagesSent == 0 {
		t.Error("no messages recorded despite candidates")
	}
	if st.MessagesSent%2 != 0 {
		t.Errorf("messages come in request/verdict pairs, got %d", st.MessagesSent)
	}
	joined, compact := shippedFloats(q, locals)
	if compact == 0 || st.FloatsShipped != compact {
		t.Errorf("floats shipped = %d, want the compact form's %d (joined vectors would be %d)", st.FloatsShipped, compact, joined)
	}
}

// TestCompactWireTraffic is the traffic pin: on a 2-node equality instance
// whose candidates outnumber their distinct rows many times over, round 2
// ships at most a third of the floats the joined vectors would take, and
// the answer is still core.Run's.
func TestCompactWireTraffic(t *testing.T) {
	mk := func(name string, seed int64) *dataset.Relation {
		return datagen.MustGenerate(datagen.Config{
			Name: name, N: 120, Local: 3, Agg: 1, Groups: 4, Dist: datagen.AntiCorrelated, Seed: seed,
		})
	}
	q := core.Query{R1: mk("r1", 31), R2: mk("r2", 32), Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
	q.K = q.Width()
	locals := localCandidates(t, q, 2)
	for n, c := range locals {
		lefts, rights := map[int]bool{}, map[int]bool{}
		for _, p := range c {
			lefts[p.Left], rights[p.Right] = true, true
		}
		if rows := len(lefts) + len(rights); len(c) == 0 || len(c) < 5*rows {
			t.Fatalf("node %d: %d candidates over %d distinct rows; the instance must have at least 5 per row", n, len(c), rows)
		}
	}
	res, err := Run(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	joined, _ := shippedFloats(q, locals)
	t.Logf("candidates per node %v; round 2 shipped %d floats, the joined vectors would take %d", res.Stats.CandidatesPerNode, res.Stats.FloatsShipped, joined)
	if st := res.Stats; 3*st.FloatsShipped > joined {
		t.Errorf("round 2 shipped %d floats, more than a third of the joined vectors' %d", st.FloatsShipped, joined)
	}
	serial, err := core.Run(q, core.Naive)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "compact wire", res, serial)
}

func TestDistributedSingleNodeEqualsLocal(t *testing.T) {
	// One node = the serial grouping algorithm with no verification
	// traffic.
	q := core.Query{
		R1: datagen.MustGenerate(datagen.Config{
			Name: "r1", N: 60, Local: 3, Groups: 4, Seed: 7,
		}),
		R2: datagen.MustGenerate(datagen.Config{
			Name: "r2", N: 60, Local: 3, Groups: 4, Seed: 8,
		}),
		Spec: join.Spec{Cond: join.Equality},
		K:    4,
	}
	res, err := Run(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesSent != 0 || res.Stats.FloatsShipped != 0 {
		t.Errorf("single node should exchange nothing, got %d msgs / %d floats",
			res.Stats.MessagesSent, res.Stats.FloatsShipped)
	}
	serial, err := core.Run(q, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "single node", res, serial)
}

func TestDistributedErrors(t *testing.T) {
	r := datagen.MustGenerate(datagen.Config{Name: "r", N: 10, Local: 2, Groups: 2, Seed: 1})
	q := core.Query{R1: r, R2: r.Clone(), Spec: join.Spec{Cond: join.Equality}, K: 3}
	if _, err := Run(q, 0); !errors.Is(err, ErrBadNodes) {
		t.Errorf("nodes=0: err = %v, want ErrBadNodes", err)
	}
	q.Spec.Cond = join.Cross
	if _, err := Run(q, 2); err == nil {
		t.Error("non-equality join accepted")
	}
	q.Spec.Cond = join.Equality
	q.K = 99
	if _, err := Run(q, 2); err == nil {
		t.Error("invalid k accepted")
	}
}

// failFast is a Transport whose node 0 fails at once and whose node 1
// blocks until its context is done, recording that it was.
type failFast struct {
	err       error
	cancelled chan struct{}
}

func (f *failFast) Local(ctx context.Context, n int) (*join.Components, time.Duration, error) {
	if n == 0 {
		return nil, 0, f.err
	}
	<-ctx.Done()
	close(f.cancelled)
	return nil, 0, ctx.Err()
}

func (f *failFast) Verify(context.Context, int, *join.Components) ([]bool, error) {
	panic("round 2 after a failed round 1")
}

// TestRoundsCancelsSiblingsOnFirstError: the first failing node ends the
// round for every other node, and its error is the one returned.
func TestRoundsCancelsSiblingsOnFirstError(t *testing.T) {
	f := &failFast{err: errors.New("node 0 down"), cancelled: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, _, err := Rounds(context.Background(), f, []int{0, 1}, 2)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, f.err) {
			t.Fatalf("Rounds returned %v, want node 0's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rounds waited on the blocked node")
	}
	select {
	case <-f.cancelled:
	default:
		t.Fatal("node 1 never saw the cancellation")
	}
}

// mute is a Transport whose nodes hold one candidate each and vote on
// nothing.
type mute struct{}

func (mute) Local(_ context.Context, n int) (*join.Components, time.Duration, error) {
	c := join.Split([]join.Pair{{Left: n, Right: n, Attrs: []float64{1, 2}}}, 1, 1)
	return &c, 0, nil
}

func (mute) Verify(context.Context, int, *join.Components) ([]bool, error) { return nil, nil }

// TestRoundsRejectsMissingVotes: a node that votes on fewer vectors than
// it was sent fails the query instead of letting the unvoted candidates
// through.
func TestRoundsRejectsMissingVotes(t *testing.T) {
	if sky, _, err := Rounds(context.Background(), mute{}, []int{0, 1}, 2); err == nil {
		t.Fatalf("answer %v from nodes that never voted", sky)
	}
}

func TestNodeOfDeterministicAndBounded(t *testing.T) {
	for _, key := range []string{"", "a", "hub07", "Δ"} {
		n1 := NodeOf(key, 7)
		n2 := NodeOf(key, 7)
		if n1 != n2 {
			t.Errorf("NodeOf(%q) not deterministic", key)
		}
		if n1 < 0 || n1 >= 7 {
			t.Errorf("NodeOf(%q) = %d out of range", key, n1)
		}
	}
}
