package service

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// nextEvent reads one event with a deadline, failing the test on timeout
// or a closed channel.
func nextEvent(t *testing.T, w *Watch) WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-w.Events():
		if !ok {
			t.Fatalf("watch events closed early: %v", w.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for watch event")
	}
	panic("unreachable")
}

// applyDelta folds one event into a replica of the watched answer.
func applyDelta(t *testing.T, replica map[[2]int][]float64, ev WatchEvent) {
	t.Helper()
	for _, p := range ev.Removed {
		key := [2]int{p.Left, p.Right}
		if _, ok := replica[key]; !ok {
			t.Fatalf("delta removed (%d,%d), which the replica does not hold", p.Left, p.Right)
		}
		delete(replica, key)
	}
	for _, p := range ev.Added {
		key := [2]int{p.Left, p.Right}
		if _, ok := replica[key]; ok {
			t.Fatalf("delta added (%d,%d), which the replica already holds", p.Left, p.Right)
		}
		replica[key] = p.Attrs
	}
}

// randTuple builds an insert for the datagen-shaped test relations
// (3 local + 1 aggregate attributes, keyed into one of 5 groups).
func randTuple(rng *rand.Rand) dataset.Tuple {
	attrs := make([]float64, 4)
	for i := range attrs {
		attrs[i] = rng.Float64() * 100
	}
	return dataset.Tuple{Key: []string{"g0", "g1", "g2", "g3", "g4"}[rng.Intn(5)], Attrs: attrs}
}

// TestWatchDeltasMatchOracle drives ≥10 maintained inserts through a
// watched query and checks, after every delta, that replaying the event
// stream reproduces a from-scratch oracle recompute exactly.
func TestWatchDeltasMatchOracle(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 60)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5}

	w, err := s.Watch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	first := nextEvent(t, w)
	if first.Seq != 0 || len(first.Removed) != 0 {
		t.Fatalf("initial event: seq=%d removed=%d, want snapshot", first.Seq, len(first.Removed))
	}
	replica := make(map[[2]int][]float64)
	applyDelta(t, replica, first)

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		name := "r1"
		if i%2 == 1 {
			name = "r2"
		}
		ins, err := s.Insert(name, randTuple(rng))
		if err != nil {
			t.Fatal(err)
		}
		ev := nextEvent(t, w)
		if ev.Seq != uint64(i+1) {
			t.Fatalf("insert %d: event seq %d, want %d", i, ev.Seq, i+1)
		}
		if name == "r1" && ev.Versions[0] != ins.Version {
			t.Fatalf("insert %d: event versions %v, insert moved %s to %d", i, ev.Versions, name, ins.Version)
		}
		applyDelta(t, replica, ev)

		// Oracle: a forced from-scratch recompute of the same request.
		fresh, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Skyline) != len(replica) {
			t.Fatalf("insert %d: replica has %d pairs, oracle %d", i, len(replica), len(fresh.Skyline))
		}
		for _, p := range fresh.Skyline {
			attrs, ok := replica[[2]int{p.Left, p.Right}]
			if !ok {
				t.Fatalf("insert %d: oracle pair (%d,%d) missing from replica", i, p.Left, p.Right)
			}
			for a := range attrs {
				if attrs[a] != p.Attrs[a] {
					t.Fatalf("insert %d: pair (%d,%d) attr %d = %v, oracle %v",
						i, p.Left, p.Right, a, attrs[a], p.Attrs[a])
				}
			}
		}
	}
}

// TestWatchSharedSetAndClose exercises two subscribers on one query: both
// see the same deltas, closing one leaves the other live, closing the
// last returns the answer to the unpinned LRU.
func TestWatchSharedSetAndClose(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 40)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5}

	w1, err := s.Watch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Watch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Watches; got != 2 {
		t.Fatalf("Stats.Watches = %d, want 2", got)
	}
	ev1, ev2 := nextEvent(t, w1), nextEvent(t, w2)
	if len(ev1.Added) != len(ev2.Added) {
		t.Fatalf("subscribers saw different snapshots: %d vs %d", len(ev1.Added), len(ev2.Added))
	}

	w1.Close()
	if _, ok := <-w1.Events(); ok {
		t.Fatal("closed watch still delivering")
	}
	if err := w1.Err(); err != nil {
		t.Fatalf("clean close reports error %v", err)
	}

	rng := rand.New(rand.NewSource(78))
	if _, err := s.Insert("r1", randTuple(rng)); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, w2); ev.Seq != 1 {
		t.Fatalf("surviving subscriber got seq %d, want 1", ev.Seq)
	}

	w2.Close()
	if got := s.Stats().Watches; got != 0 {
		t.Fatalf("Stats.Watches = %d after closing all, want 0", got)
	}
}

// TestWatchIgnoresNoCache pins that a subscription attaches to the standing
// answer even when its request says NoCache: a NoCache query stores
// nothing, so honouring the flag would leave nothing to attach to.
func TestWatchIgnoresNoCache(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 40)
	w, err := s.Watch(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if ev := nextEvent(t, w); ev.Seq != 0 {
		t.Fatalf("first event has seq %d, want the snapshot", ev.Seq)
	}
	if st := s.Stats(); st.Watches != 1 || st.CacheEntries != 1 {
		t.Errorf("%d watches over %d cache entries, want 1 and 1", st.Watches, st.CacheEntries)
	}
}

// TestWatchRejectsNonStrictAggregator pins the up-front rejection: max
// cannot be maintained incrementally, so it cannot be watched.
func TestWatchRejectsNonStrictAggregator(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	_, err := s.Watch(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "naive"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("watch with max aggregator: err = %v, want ErrBadRequest", err)
	}
}

// TestWatchEndsOnServiceClose pins shutdown: Close ends every
// subscription with ErrClosed.
func TestWatchEndsOnServiceClose(t *testing.T) {
	s := New(Config{})
	r1 := testRelation("r1", 20, 3, 1, 5, 42)
	r2 := testRelation("r2", 20, 3, 1, 5, 43)
	if _, err := s.Register("r1", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("r2", r2); err != nil {
		t.Fatal(err)
	}
	w, err := s.Watch(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				if err := w.Err(); !errors.Is(err, ErrClosed) {
					t.Fatalf("Err() = %v, want ErrClosed", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed after service Close")
		}
	}
}

// TestWatchEndsOnContextCancel pins the context contract.
func TestWatchEndsOnContextCancel(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	ctx, cancel := context.WithCancel(context.Background())
	w, err := s.Watch(ctx, QueryRequest{R1: "r1", R2: "r2", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				if err := w.Err(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Err() = %v, want context.Canceled", err)
				}
				if got := s.Stats().Watches; got != 0 {
					t.Fatalf("Stats.Watches = %d after cancel, want 0", got)
				}
				// A context cancelled before the subscription exists must
				// not leave the (now cached) answer pinned by a dead
				// subscriber: the pump's detach may run before Watch
				// returns.
				dead, err := s.Watch(ctx, QueryRequest{R1: "r1", R2: "r2", K: 5})
				if err != nil {
					t.Fatal(err)
				}
				for range dead.Events() {
				}
				if st := s.Stats(); st.Watches != 0 || len(s.cache.entries) != s.cache.lru.Len() {
					t.Fatalf("dead subscription left watches=%d, %d answers of %d unpinned",
						st.Watches, s.cache.lru.Len(), len(s.cache.entries))
				}
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed after cancel")
		}
	}
}

// TestWatchSelfJoin pins the both-sides absorb: one physical insert into
// a self-joined relation must produce one coherent delta.
func TestWatchSelfJoin(t *testing.T) {
	s := newTestService(t, Config{})
	r := testRelation("r", 40, 3, 1, 5, 44)
	oracleRel := r.Clone()
	if _, err := s.Register("r", r); err != nil {
		t.Fatal(err)
	}
	w, err := s.Watch(context.Background(), QueryRequest{R1: "r", R2: "r", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	replica := make(map[[2]int][]float64)
	applyDelta(t, replica, nextEvent(t, w))

	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 5; i++ {
		tup := randTuple(rng)
		if _, err := s.Insert("r", tup); err != nil {
			t.Fatal(err)
		}
		if _, err := oracleRel.Append(tup); err != nil {
			t.Fatal(err)
		}
		applyDelta(t, replica, nextEvent(t, w))
		oracle, err := core.Run(core.Query{
			R1: oracleRel, R2: oracleRel,
			Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 5,
		}, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		if len(oracle.Skyline) != len(replica) {
			t.Fatalf("insert %d: replica %d pairs, oracle %d", i, len(replica), len(oracle.Skyline))
		}
		for _, p := range oracle.Skyline {
			if _, ok := replica[[2]int{p.Left, p.Right}]; !ok {
				t.Fatalf("insert %d: oracle pair (%d,%d) missing", i, p.Left, p.Right)
			}
		}
	}
}
