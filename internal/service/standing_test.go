package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// Unsubscribing never evicts (answers are removed only under the
	// committer's lock), so the list sits one over capacity until the next
	// stored answer trims it.
	w.Close()
	if st := s.Stats(); st.CacheEntries != 3 || st.Watches != 0 {
		t.Fatalf("after close: cache_entries=%d watches=%d, want 3 (untrimmed) and 0", st.CacheEntries, st.Watches)
	}
	if _, err := s.Query(context.Background(), unwatched[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 2 {
		t.Fatalf("after the next stored answer: cache_entries=%d, want 2", st.CacheEntries)
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

// stormStep commits step i of a mixed schedule — two small insert batches,
// then a small delete batch — to the named relation and to its mirror, and
// returns what the service reported. It reports errors instead of failing
// the test so storm goroutines can call it.
func stormStep(s *Service, name string, mirror *dataset.Relation, rng *rand.Rand, i int) (version uint64, invalidated int, err error) {
	if i%3 == 2 {
		ids := deleteIDs(rng, mirror.Len(), 1+rng.Intn(3))
		res, err := s.DeleteBatch(name, ids)
		if err != nil {
			return 0, 0, err
		}
		return res.Version, res.Invalidated, mirror.DeleteBatch(ids)
	}
	batch := make([]dataset.Tuple, 1+rng.Intn(3))
	for j := range batch {
		batch[j] = oracleTuple(rng)
	}
	res, err := s.InsertBatch(name, batch)
	if err != nil {
		return 0, 0, err
	}
	_, err = mirror.AppendBatch(batch)
	return res.Version, res.Invalidated, err
}

// runStorm commits stormSteps alternately into r1 and r2 (mirrored into
// oracle's clones) until at least minCommits have run and enough() holds,
// failing on any commit that invalidates a standing answer: every answer
// in these tests is maintainable, so an invalidation means a maintainer
// was closed — or an answer went stale — under a commit. The returned
// channel closes when the storm has stopped.
func runStorm(t *testing.T, s *Service, oracle core.Query, seed int64, minCommits int, enough func() bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000 && (i < minCommits || !enough()); i++ {
			name, mirror := "r1", oracle.R1
			if i%2 == 1 {
				name, mirror = "r2", oracle.R2
			}
			_, invalidated, err := stormStep(s, name, mirror, rng, i/2)
			if err != nil {
				t.Errorf("storm commit %d: %v", i, err)
				return
			}
			if invalidated != 0 {
				t.Errorf("storm commit %d invalidated %d standing answers", i, invalidated)
				return
			}
		}
	}()
	return done
}

// replayWatch drains w from its snapshot up to the event that reaches the
// final versions and returns the replica the stream builds: Seq must be
// contiguous from 0 and every delta must move exactly one relation by
// exactly one version (no gap); applyDelta fails on a duplicate.
func replayWatch(t *testing.T, label string, w *Watch, final [2]uint64) map[[2]int][]float64 {
	t.Helper()
	replica := make(map[[2]int][]float64)
	ev := nextEvent(t, w)
	for seq := uint64(0); ; seq++ {
		if ev.Seq != seq {
			t.Fatalf("%s: event seq %d, want %d", label, ev.Seq, seq)
		}
		applyDelta(t, replica, ev)
		if ev.Versions == final {
			return replica
		}
		next := nextEvent(t, w)
		if d0, d1 := next.Versions[0]-ev.Versions[0], next.Versions[1]-ev.Versions[1]; d0+d1 != 1 {
			t.Fatalf("%s: event %d moves versions %v -> %v, want one commit per delta", label, next.Seq, ev.Versions, next.Versions)
		}
		ev = next
	}
}

func assertReplica(t *testing.T, label string, replica map[[2]int][]float64, want []join.Pair) {
	t.Helper()
	if len(replica) != len(want) {
		t.Fatalf("%s: subscriber holds %d pairs, recompute %d", label, len(replica), len(want))
	}
	for _, p := range want {
		if attrs, ok := replica[[2]int{p.Left, p.Right}]; !ok || !equalAttrs(attrs, p.Attrs) {
			t.Fatalf("%s: recomputed pair (%d,%d) missing from the subscriber's state", label, p.Left, p.Right)
		}
	}
}

// assertQuiet fails if any of the watches still has an event to deliver.
func assertQuiet(t *testing.T, watches []*Watch) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	for i, w := range watches {
		select {
		case ev, ok := <-w.Events():
			t.Fatalf("watch %d: extra event %+v (open=%v, err=%v) past the final versions", i, ev, ok, w.Err())
		default:
		}
	}
}

// TestWatchAttachMidCommit: subscribers attaching while a commit storm is
// advancing their answer — and while concurrent queries recompute the same
// key and try to store it — each get a snapshot at whatever versions the
// attach landed on, followed by exactly the deltas of every later commit:
// replayed, the stream reaches the final recompute with no gap and no
// duplicate. The storm keeps committing until enough attaches have landed
// inside it, so there is nothing to skip.
func TestWatchAttachMidCommit(t *testing.T) {
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 120)
	ctx := context.Background()
	req := QueryRequest{R1: "r1", R2: "r2", K: 5}
	if _, err := s.Query(ctx, req); err != nil { // the standing answer the storm advances
		t.Fatal(err)
	}

	const wantAttached = 12
	var attached atomic.Int32
	storm := runStorm(t, s, oracle, 63, 40, func() bool { return attached.Load() >= wantAttached })
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := req
			r.NoCache = i%4 == 3
			if _, err := s.Query(ctx, r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var watches []*Watch
	for len(watches) < wantAttached {
		w, err := s.Watch(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		watches = append(watches, w)
		attached.Add(1)
	}
	<-storm
	close(stop)
	readers.Wait()

	_, v1, _ := s.Relation("r1")
	_, v2, _ := s.Relation("r2")
	final := [2]uint64{v1, v2}
	want := recompute(t, oracle)
	for i, w := range watches {
		label := fmt.Sprintf("watch %d", i)
		assertReplica(t, label, replayWatch(t, label, w, final), want)
	}
	assertQuiet(t, watches)
}

// TestUnsubscribeDuringCommitStorm: watch contexts are cancelled while a
// commit storm advances their answers and a reader keeps storing other
// answers (each store trims the LRU), with room for three unpinned ones —
// enough that a fresh answer survives from its Store to the attach. A cancelled watch's detach
// runs on its own goroutine, without the committer's lock; it must return
// the answer to the LRU without evicting anything, or it would close a
// maintainer a commit is using (the race lane sees that directly; here it
// would surface as an invalidated answer and a terminated survivor).
// Surviving watches replay to the oracle.
func TestUnsubscribeDuringCommitStorm(t *testing.T) {
	s := newTestService(t, Config{CacheEntries: 3, SweepInterval: -1})
	oracle := registerPair(t, s, 80)
	ctx := context.Background()
	var reqs []QueryRequest
	for _, cond := range []string{"eq", "cross"} {
		for k := 5; k <= 7; k++ {
			reqs = append(reqs, QueryRequest{R1: "r1", R2: "r2", K: k, Join: cond})
		}
	}
	// Unwatched self-joins the reader cycles through: six keys with room
	// for three, so every one is a miss whose Store trims the LRU.
	var churn []QueryRequest
	for _, name := range []string{"r1", "r2"} {
		for k := 5; k <= 7; k++ {
			churn = append(churn, QueryRequest{R1: name, R2: name, K: k})
		}
	}
	survivorOf := []int{0, 4} // (eq, 5) and (cross, 6)
	var survivors []*Watch
	for _, qi := range survivorOf {
		w, err := s.Watch(ctx, reqs[qi])
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		survivors = append(survivors, w)
	}
	const leavers = 60
	var left atomic.Int32
	storm := runStorm(t, s, oracle, 64, 40, func() bool { return left.Load() == leavers })
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Query(ctx, churn[i%len(churn)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Subscribe and cancel, key after key: on two keys in six the leaver
	// shares its answer with a survivor, on the rest it is the only pin.
	// The attach lands between two commits and the storm never pauses, so
	// the detach — on the watch's goroutine — lands inside a later one; the
	// staggered delay (20 µs to 2.5 ms) spreads it across the commit's
	// length, race lane included.
	for i := 0; i < leavers; i++ {
		wctx, cancel := context.WithCancel(ctx)
		w, err := s.Watch(wctx, reqs[i%len(reqs)])
		time.Sleep(20 * time.Microsecond << (i % 8))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for range w.Events() { // closes once the pump has detached
		}
		if err := w.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled watch ended with %v", err)
		}
		left.Add(1)
	}
	<-storm
	close(stop)
	readers.Wait()

	_, v1, _ := s.Relation("r1")
	_, v2, _ := s.Relation("r2")
	final := [2]uint64{v1, v2}
	for i, w := range survivors {
		req := reqs[survivorOf[i]]
		q := oracle
		q.K = req.K
		q.Spec.Cond, _ = join.ParseCondition(req.Join)
		label := fmt.Sprintf("survivor %+v", req)
		assertReplica(t, label, replayWatch(t, label, w, final), recompute(t, q))
	}
	assertQuiet(t, survivors)
	if st := s.Stats(); st.Watches != len(survivors) || st.Evictions == 0 {
		t.Fatalf("watches=%d evictions=%d, want %d surviving watches and the returned answers evicted by later stores", st.Watches, st.Evictions, len(survivors))
	}
}

// TestResidentStandsAcrossCommits: one Resident per (pair, condition)
// follows the pair across versions — commits advance it in place, they do
// not mint one per version — and one that cannot advance is dropped and
// rebuilt through the query path's build-once get, the maintained answer
// tracking the oracle throughout.
func TestResidentStandsAcrossCommits(t *testing.T) {
	s := newTestService(t, Config{SweepInterval: -1})
	oracle := registerPair(t, s, 40)
	ctx := context.Background()
	req := QueryRequest{R1: "r1", R2: "r2", K: 5}
	if _, err := s.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1303))
	check := func(label string) {
		t.Helper()
		if got := s.Stats().Residents; got != 1 {
			t.Fatalf("%s: %d residents, want the one standing (r1, r2, eq)", label, got)
		}
		for _, noCache := range []bool{false, true} { // the maintained answer, then a run over the resident
			r := req
			r.NoCache = noCache
			resp, err := s.Query(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			assertPairsIdentical(t, fmt.Sprintf("%s (no_cache=%v)", label, noCache), resp.Skyline, recompute(t, oracle))
		}
	}
	for i := 0; i < 8; i++ {
		mixedStep(t, s, oracle, rng, i)
		check(fmt.Sprintf("step %d", i))
	}

	s.mu.Lock()
	s.residents.advance("r1", func(*core.Resident, core.Side) error { return errors.New("cannot follow") })
	s.mu.Unlock()
	if got := s.Stats().Residents; got != 0 {
		t.Fatalf("%d residents after one failed to advance, want it dropped", got)
	}
	mixedStep(t, s, oracle, rng, 8) // the commit rebuilds it for the standing answer
	check("after the rebuild")
}

// TestStoreRecomputingCommitter drives the store the way a committer that
// recomputes instead of maintaining does (the sharded gateway): Watched
// lists only the answers over the relation that somebody subscribes to,
// skyline and versions move together at Publish (until then the pre-commit
// answer is served at the pre-commit versions only), Publish delivers
// DiffPairs of the served and the recomputed skyline at the new versions,
// and publishing an error removes the answer and ends its subscriptions
// with it.
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

	taken := c.Watched("r1")
	if len(taken) != 1 || taken[0].Key() != watched {
		t.Fatalf("Watched(r1) = %v, want exactly the subscribed answer over r1", taken)
	}
	// Readers are held off a commit by the committer's lock, not by the
	// store (TestQueryDuringCommitWaitsAndHits); the store's part is that a
	// reader holding pre-commit versions gets the pre-commit answer and
	// nobody gets it under the post-commit ones.
	if snap, _, _, ok := c.Lookup(watched, v1); !ok || len(snap.Skyline) != 2 {
		t.Fatalf("before Publish the pre-commit answer is not served at its versions (ok=%v, %v)", ok, snap)
	}
	if _, _, _, ok := c.Lookup(watched, v2); ok {
		t.Fatal("an unpublished answer was served at the post-commit versions")
	}
	if _, _, _, ok := c.Lookup(unwatched, v1); !ok {
		t.Fatal("an unwatched answer was disturbed")
	}
	c.Publish(taken[0], []join.Pair{pair(1, 1), pair(3, 0)}, v2, nil)
	ev := <-w.Events()
	if ev.Seq != 1 || ev.Versions != v2 || len(ev.Added) != 1 || ev.Added[0].Left != 3 || len(ev.Removed) != 1 || ev.Removed[0].Left != 0 {
		t.Fatalf("delta event %+v, want +(3,0) −(0,0) at %v", ev, v2)
	}
	if snap, _, _, ok := c.Lookup(watched, v2); !ok || len(snap.Skyline) != 2 {
		t.Fatalf("published answer not served at the new versions (ok=%v, %v)", ok, snap)
	}

	down := fmt.Errorf("shard down")
	c.Publish(c.Watched("r1")[0], nil, [2]uint64{3, 1}, down)
	if _, open := <-w.Events(); open || w.Err() != down {
		t.Fatalf("subscription after a failed recompute: open=%v err=%v, want closed with %v", open, w.Err(), down)
	}
	if entries, _, watches, _ := c.Stats(); entries != 2 || watches != 1 {
		t.Fatalf("%d answers / %d subscribers left, want the unwatched one and the one over r3", entries, watches)
	}
}

// TestPublishDropsEncoding: a snapshot's encoding is filled once and shared
// by every hit on it; Publish hands later lookups a new snapshot whose
// encoding is filled from the new skyline, while the old snapshot — which
// a reader may still hold, or still be filling — keeps its own bytes.
func TestPublishDropsEncoding(t *testing.T) {
	c := NewAnswerStore(4)
	key := AnswerKey{R1: "r1", R2: "r2", K: 4}
	v1, v2 := [2]uint64{1, 1}, [2]uint64{2, 1}
	fills := 0
	encode := func(sky []join.Pair) []byte {
		fills++
		return fmt.Appendf(nil, "%d pairs", len(sky))
	}
	c.Store(key, v1, core.Query{}, []join.Pair{{Left: 0, Right: 0}}, "grouping")
	old, _, _, _ := c.Lookup(key, v1)
	for range 3 {
		snap, _, _, _ := c.Lookup(key, v1)
		if snap != old || string(snap.Encoded(encode)) != "1 pairs" {
			t.Fatalf("hit at unchanged versions got %p %q, want the standing snapshot %p and its bytes", snap, snap.Encoded(encode), old)
		}
	}
	if fills != 1 {
		t.Fatalf("the encoding was filled %d times over three hits, want once", fills)
	}
	c.Store(key, v2, core.Query{}, []join.Pair{{Left: 0, Right: 0}, {Left: 1, Right: 0}}, "grouping")
	held, _, _, ok := c.Lookup(key, v2)
	if !ok || held == old {
		t.Fatalf("after the answer moved: ok=%v, same snapshot=%v; want a new snapshot", ok, held == old)
	}

	// Publish while a reader still holds the pre-commit snapshot unfilled:
	// its fill encodes the pre-commit skyline, and nothing it writes
	// reaches the published snapshot.
	w := c.Attach(context.Background(), c.Standing(key, v2))
	defer w.Close()
	c.Publish(c.Watched("r1")[0], []join.Pair{{Left: 5, Right: 5}}, [2]uint64{3, 1}, nil)
	pub, _, _, ok := c.Lookup(key, [2]uint64{3, 1})
	if !ok || pub == held {
		t.Fatal("Publish left the pre-commit snapshot standing")
	}
	if got := string(held.Encoded(encode)); got != "2 pairs" {
		t.Fatalf("the held pre-commit snapshot encodes %q, want its own 2 pairs", got)
	}
	if got := string(pub.Encoded(encode)); got != "1 pairs" || len(pub.Skyline) != 1 || pub.Skyline[0].Left != 5 {
		t.Fatalf("the published snapshot encodes %q over %v, want the post-commit answer's 1 pair", got, pub.Skyline)
	}
}
