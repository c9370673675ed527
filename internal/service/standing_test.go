package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// Tests for the standing answer (cache.go): one structure behind cache
// hits, maintained hits and watch deltas.

// mixedStep applies step i of a deterministic mixed schedule — three
// deletes, then an insert, alternating relations — to the service and to
// the oracle's clones, and returns what the service reported.
func mixedStep(t *testing.T, s *Service, oracle core.Query, rng *rand.Rand, i int) (maintained, invalidated int) {
	t.Helper()
	name, rel := "r1", oracle.R1
	if i%2 == 1 {
		name, rel = "r2", oracle.R2
	}
	if i%4 == 3 {
		tup := randTuple(rng)
		res, err := s.Insert(name, tup)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Append(tup); err != nil {
			t.Fatal(err)
		}
		return res.Maintained, res.Invalidated
	}
	ids := deleteIDs(rng, rel.Len(), 1+rng.Intn(3))
	res, err := s.DeleteBatch(name, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	return res.Maintained, res.Invalidated
}

func recompute(t *testing.T, q core.Query) []join.Pair {
	t.Helper()
	res, err := core.Exec(context.Background(), q, core.ExecOptions{Algorithm: core.Grouping})
	if err != nil {
		t.Fatal(err)
	}
	return res.Skyline
}

// TestStandingAnswerLRUPressure: with room for two unpinned answers and
// four unwatched queries cycling through, every unwatched answer is
// evicted before it is asked again and recomputes; the watched answer is
// pinned outside that budget — never evicted, maintained across every
// batch, its deltas exactly diff(previous recompute, next recompute).
func TestStandingAnswerLRUPressure(t *testing.T) {
	s := newTestService(t, Config{CacheEntries: 2, SweepInterval: -1})
	oracle := registerPair(t, s, 40)
	oracle.K = 7
	watched := QueryRequest{R1: "r1", R2: "r2", K: 7}
	unwatched := []QueryRequest{
		{R1: "r1", R2: "r2", K: 5},
		{R1: "r1", R2: "r2", K: 6},
		{R1: "r1", R2: "r2", K: 5, Join: "cross"},
		{R1: "r1", R2: "r2", K: 6, Join: "cross"},
	}

	w, err := s.Watch(context.Background(), watched)
	if err != nil {
		t.Fatal(err)
	}
	prev := recompute(t, oracle)
	first := nextEvent(t, w)
	assertPairsIdentical(t, "snapshot", first.Added, prev)

	rng := rand.New(rand.NewSource(1301))
	for i := 0; i < 10; i++ {
		for _, req := range unwatched {
			resp, err := s.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Source != SourceComputed {
				t.Fatalf("step %d: unwatched %+v answered %q, want computed (evicted under LRU pressure)", i, req, resp.Source)
			}
		}
		evictions := s.Stats().Evictions
		if want := uint64(4*(i+1) - 2); evictions != want {
			t.Fatalf("step %d: %d evictions, want %d", i, evictions, want)
		}

		mixedStep(t, s, oracle, rng, i)
		next := recompute(t, oracle)
		added, removed := DiffPairs(prev, next)
		ev := nextEvent(t, w)
		if ev.Seq != uint64(i+1) {
			t.Fatalf("step %d: event seq %d, want %d", i, ev.Seq, i+1)
		}
		assertPairsIdentical(t, fmt.Sprintf("step %d added", i), ev.Added, added)
		assertPairsIdentical(t, fmt.Sprintf("step %d removed", i), ev.Removed, removed)
		prev = next

		resp, err := s.Query(context.Background(), watched)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceMaintained {
			t.Fatalf("step %d: watched query answered %q, want maintained (pinned)", i, resp.Source)
		}
		assertPairsIdentical(t, fmt.Sprintf("step %d watched answer", i), resp.Skyline, next)
	}

	if st := s.Stats(); st.CacheEntries != 3 || st.Watches != 1 {
		t.Fatalf("cache_entries=%d watches=%d, want 3 (two LRU + one pinned) and 1", st.CacheEntries, st.Watches)
	}
	// The last subscriber leaving returns the answer to the LRU budget.
	w.Close()
	if st := s.Stats(); st.CacheEntries != 2 || st.Watches != 0 {
		t.Fatalf("after close: cache_entries=%d watches=%d, want 2 and 0", st.CacheEntries, st.Watches)
	}
}

// TestWatchedAndCachedShareOneAnswer: a query that is both cached and
// watched is one standing answer holding one maintainer — each batch
// counts it once, Query serves it as maintained, and the served skyline,
// the subscriber's accumulated state and a from-scratch recompute agree.
func TestWatchedAndCachedShareOneAnswer(t *testing.T) {
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 50)
	oracle.K = 7
	req := QueryRequest{R1: "r1", R2: "r2", K: 7}

	if _, err := s.Query(context.Background(), req); err != nil { // cached first …
		t.Fatal(err)
	}
	w, err := s.Watch(context.Background(), req) // … then watched
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	replica := make(map[[2]int][]float64)
	applyDelta(t, replica, nextEvent(t, w))

	rng := rand.New(rand.NewSource(1302))
	for i := 0; i < 12; i++ {
		maintained, invalidated := mixedStep(t, s, oracle, rng, i)
		if maintained != 1 || invalidated != 0 {
			t.Fatalf("step %d: maintained=%d invalidated=%d, want the one standing answer counted once", i, maintained, invalidated)
		}
		applyDelta(t, replica, nextEvent(t, w))

		resp, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceMaintained {
			t.Fatalf("step %d: source %q, want maintained", i, resp.Source)
		}
		assertPairsIdentical(t, fmt.Sprintf("step %d vs recompute", i), resp.Skyline, recompute(t, oracle))
		if len(replica) != len(resp.Skyline) {
			t.Fatalf("step %d: subscriber holds %d pairs, served answer %d", i, len(replica), len(resp.Skyline))
		}
		for _, p := range resp.Skyline {
			if attrs, ok := replica[[2]int{p.Left, p.Right}]; !ok || !equalAttrs(attrs, p.Attrs) {
				t.Fatalf("step %d: served pair (%d,%d) differs from the subscriber's state", i, p.Left, p.Right)
			}
		}
	}

	if st := s.Stats(); st.CacheEntries != 1 || st.MaintainedEntries != 1 || st.Watches != 1 {
		t.Fatalf("cache_entries=%d maintained_entries=%d watches=%d, want 1/1/1", st.CacheEntries, st.MaintainedEntries, st.Watches)
	}
	for _, a := range s.cache.entries {
		if a.m == nil || len(a.subs) != 1 {
			t.Fatalf("standing answer: maintainer=%v subscribers=%d, want one of each", a.m != nil, len(a.subs))
		}
	}
}

// TestWatchAttachMidCommit: a subscriber attaching while a slow batch is
// in its lock-free phase 2 — and while concurrent queries recompute the
// same key at the new version and try to store it — gets the pre-batch
// snapshot followed by exactly that batch's delta: no gap, no duplicate.
// The batch is sized (as in TestInsertBatchDoesNotBlockQuery) so the
// absorb takes real time; an attempt whose attach loses the race to
// phase 3 sees the post-batch snapshot and no delta, and tries again.
func TestWatchAttachMidCommit(t *testing.T) {
	s := newTestService(t, Config{SweepInterval: -1})
	for name, seed := range map[string]int64{"r1": 61, "r2": 62} {
		if _, err := s.Register(name, testRelation(name, 2000, 3, 1, 10, seed)); err != nil {
			t.Fatal(err)
		}
	}
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "grouping"}
	fresh := QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "grouping", NoCache: true}
	if _, err := s.Query(context.Background(), req); err != nil { // the standing answer the batch takes
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(63))
	for attempt := 0; attempt < 5; attempt++ {
		batch := make([]dataset.Tuple, 400)
		for i := range batch {
			batch[i] = dataset.Tuple{
				Key:   fmt.Sprintf("g%04d", rng.Intn(10)),
				Attrs: []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100},
			}
		}
		before := s.Stats()
		pre := [2]uint64{before.Relations[0].Version, before.Relations[1].Version}
		done := make(chan error, 1)
		go func() {
			_, err := s.InsertBatch("r1", batch)
			done <- err
		}()
		// Phase 1 counts the batch under the exclusive lock; past this
		// point the commit is in flight.
		for s.Stats().Batches == before.Batches {
			time.Sleep(50 * time.Microsecond)
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Query(context.Background(), req); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		w, err := s.Watch(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := nextEvent(t, w)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		close(stop)
		readers.Wait()

		want, err := s.Query(context.Background(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		replica := make(map[[2]int][]float64)
		applyDelta(t, replica, snapshot)
		events := 1
		if snapshot.Versions == pre {
			delta := nextEvent(t, w)
			if delta.Seq != 1 || delta.Versions != want.Versions {
				t.Fatalf("attempt %d: delta seq %d versions %v, want 1 and %v", attempt, delta.Seq, delta.Versions, want.Versions)
			}
			applyDelta(t, replica, delta) // fails on a duplicate Added
			events = 2
		} else if snapshot.Versions != want.Versions {
			t.Fatalf("attempt %d: snapshot at %v, want pre-batch %v or post-batch %v", attempt, snapshot.Versions, pre, want.Versions)
		}
		select {
		case ev := <-w.Events():
			t.Fatalf("attempt %d: extra event %+v after %d", attempt, ev, events)
		case <-time.After(50 * time.Millisecond):
		}
		w.Close()
		if len(replica) != len(want.Skyline) {
			t.Fatalf("attempt %d: subscriber holds %d pairs, recompute %d", attempt, len(replica), len(want.Skyline))
		}
		for _, p := range want.Skyline {
			if attrs, ok := replica[[2]int{p.Left, p.Right}]; !ok || !equalAttrs(attrs, p.Attrs) {
				t.Fatalf("attempt %d: recomputed pair (%d,%d) missing from the subscriber's state", attempt, p.Left, p.Right)
			}
		}
		if events == 2 {
			return // attached mid-commit and saw snapshot + delta
		}
	}
	t.Skip("no attach landed inside a commit's phase 2 in 5 attempts (absorb finished too fast to overlap)")
}

// TestStoreRecomputingCommitter drives the store the way a committer that
// recomputes instead of maintaining does (the sharded gateway): TakeWatched
// pins only the answers over the relation that somebody subscribes to, a
// taken answer is a miss until Publish, Publish delivers DiffPairs of the
// served and the recomputed skyline at the new versions, and publishing an
// error removes the answer and ends its subscriptions with it.
func TestStoreRecomputingCommitter(t *testing.T) {
	ctx := context.Background()
	c := NewAnswerStore(4)
	pair := func(l, r int) join.Pair {
		return join.Pair{Left: l, Right: r, Attrs: []float64{float64(l), float64(r)}}
	}
	watched := AnswerKey{R1: "r1", R2: "r2", K: 4}
	unwatched := AnswerKey{R1: "r1", R2: "r2", K: 5}
	elsewhere := AnswerKey{R1: "r3", R2: "r2", K: 4}
	v1, v2 := [2]uint64{1, 1}, [2]uint64{2, 1}
	c.Store(watched, v1, core.Query{}, []join.Pair{pair(0, 0), pair(1, 1)}, "grouping")
	c.Store(unwatched, v1, core.Query{}, []join.Pair{pair(0, 0)}, "grouping")
	c.Store(elsewhere, v1, core.Query{}, []join.Pair{pair(2, 2)}, "grouping")
	w := c.Attach(ctx, c.Standing(watched, v1))
	other := c.Attach(ctx, c.Standing(elsewhere, v1))
	defer other.Close()
	if ev := <-w.Events(); ev.Seq != 0 || len(ev.Added) != 2 {
		t.Fatalf("snapshot event %+v", ev)
	}

	taken := c.TakeWatched("r1")
	if len(taken) != 1 || taken[0].Key() != watched {
		t.Fatalf("TakeWatched(r1) = %v, want exactly the subscribed answer over r1", taken)
	}
	if _, _, _, ok := c.Lookup(watched, v1); ok {
		t.Fatal("an answer taken for a commit was served")
	}
	if _, _, _, ok := c.Lookup(unwatched, v1); !ok {
		t.Fatal("an unwatched answer was taken")
	}
	c.Publish(taken[0], []join.Pair{pair(1, 1), pair(3, 0)}, v2, nil)
	ev := <-w.Events()
	if ev.Seq != 1 || ev.Versions != v2 || len(ev.Added) != 1 || ev.Added[0].Left != 3 || len(ev.Removed) != 1 || ev.Removed[0].Left != 0 {
		t.Fatalf("delta event %+v, want +(3,0) −(0,0) at %v", ev, v2)
	}
	if sky, _, _, ok := c.Lookup(watched, v2); !ok || len(sky) != 2 {
		t.Fatalf("published answer not served at the new versions (ok=%v, %v)", ok, sky)
	}

	down := fmt.Errorf("shard down")
	c.Publish(c.TakeWatched("r1")[0], nil, [2]uint64{3, 1}, down)
	if _, open := <-w.Events(); open || w.Err() != down {
		t.Fatalf("subscription after a failed recompute: open=%v err=%v, want closed with %v", open, w.Err(), down)
	}
	if entries, _, watches, _ := c.Stats(); entries != 2 || watches != 1 {
		t.Fatalf("%d answers / %d subscribers left, want the unwatched one and the one over r3", entries, watches)
	}
}
