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

func TestDistributedStats(t *testing.T) {
	q := core.Query{
		R1: datagen.MustGenerate(datagen.Config{
			Name: "r1", N: 100, Local: 3, Groups: 8, Seed: 1,
		}),
		R2: datagen.MustGenerate(datagen.Config{
			Name: "r2", N: 100, Local: 3, Groups: 8, Seed: 2,
		}),
		Spec: join.Spec{Cond: join.Equality},
		K:    4,
	}
	res, err := Run(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Nodes != 4 || len(st.CandidatesPerNode) != 4 {
		t.Errorf("stats shape: %+v", st)
	}
	totalCand := 0
	for _, c := range st.CandidatesPerNode {
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
	if st.FloatsShipped == 0 && st.MessagesSent > 0 {
		t.Error("messages sent but no payload recorded")
	}
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

func (f *failFast) Local(ctx context.Context, n int) ([]join.Pair, time.Duration, error) {
	if n == 0 {
		return nil, 0, f.err
	}
	<-ctx.Done()
	close(f.cancelled)
	return nil, 0, ctx.Err()
}

func (f *failFast) Verify(context.Context, int, [][]float64) ([]bool, error) {
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

func (mute) Local(_ context.Context, n int) ([]join.Pair, time.Duration, error) {
	return []join.Pair{{Left: n, Right: n, Attrs: []float64{1, 2}}}, 0, nil
}

func (mute) Verify(context.Context, int, [][]float64) ([]bool, error) { return nil, nil }

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
