package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

func testRelation(name string, n int, local, agg, groups int, seed int64) *dataset.Relation {
	return datagen.MustGenerate(datagen.Config{
		Name: name, N: n, Local: local, Agg: agg, Groups: groups,
		Dist: datagen.Independent, Seed: seed,
	})
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// registerPair registers the standard two-relation workload and returns
// the oracle query over clones, so from-scratch recomputation never
// touches the service-owned relations.
func registerPair(t *testing.T, s *Service, n int) (oracle core.Query) {
	t.Helper()
	r1 := testRelation("r1", n, 3, 1, 5, 42)
	r2 := testRelation("r2", n, 3, 1, 5, 43)
	oracle = core.Query{
		R1: r1.Clone(), R2: r2.Clone(),
		Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 5,
	}
	if _, err := s.Register("r1", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("r2", r2); err != nil {
		t.Fatal(err)
	}
	return oracle
}

func assertPairsEqual(t *testing.T, label string, got, want []join.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: skyline size %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Left != want[i].Left || got[i].Right != want[i].Right {
			t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)",
				label, i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
		}
	}
}

func TestQueryComputedThenCached(t *testing.T) {
	s := newTestService(t, Config{})
	oracle := registerPair(t, s, 60)
	want, err := core.Run(oracle, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "grouping"}

	first, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceComputed {
		t.Errorf("first query source = %q, want computed", first.Source)
	}
	if first.Stats == nil {
		t.Error("computed response carries no engine stats")
	}
	assertPairsEqual(t, "computed", first.Skyline, want.Skyline)

	second, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceCached {
		t.Errorf("second query source = %q, want cached", second.Source)
	}
	assertPairsEqual(t, "cached", second.Skyline, want.Skyline)
	if second.Versions != [2]uint64{1, 1} {
		t.Errorf("versions = %v, want [1 1]", second.Versions)
	}

	// The key normalizes away the algorithm: a different strategy (and
	// spelled-out defaults) hits the same entry.
	third, err := s.Query(context.Background(), QueryRequest{
		R1: "r1", R2: "r2", K: 5, Join: "eq", Agg: "sum", Algorithm: "dominator",
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != SourceCached {
		t.Errorf("cross-algorithm query source = %q, want cached", third.Source)
	}

	st := s.Stats()
	if st.Computed != 1 || st.CacheHits != 2 {
		t.Errorf("stats computed=%d cacheHits=%d, want 1/2", st.Computed, st.CacheHits)
	}
}

// TestWarmQueryHitAllocs pins the hit path's allocation count exactly: one
// allocation, the response (BENCH_pr10.json's ServiceWarm figure, which
// the retired bench-compare gate used to watch).
func TestWarmQueryHitAllocs(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 60)
	ctx := context.Background()
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "grouping"}
	if _, err := s.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := s.Query(ctx, req); err != nil || resp.Source != SourceCached {
			t.Fatalf("warm query: %v, %v", resp, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a warm Service.Query hit costs %v allocations, want exactly 1", allocs)
	}
}

func TestQueryNoCacheRecomputes(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 40)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5}
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.NoCache = true
	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceComputed {
		t.Errorf("NoCache source = %q, want computed", resp.Source)
	}
}

// TestNoCacheLeavesNoStandingAnswer pins the one rule for NoCache: it
// neither reads nor writes the answer cache. A NoCache query leaves no
// answer for later commits to promote and maintain, and over an answer
// that is already maintained it leaves that answer maintained.
func TestNoCacheLeavesNoStandingAnswer(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	registerPair(t, s, 40)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, NoCache: true}
	if _, err := s.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Insert("r1", dataset.Tuple{Key: "g0000", Attrs: []float64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	del, err := s.Delete("r2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Maintained != 0 || del.Maintained != 0 {
		t.Errorf("insert maintained %d answers, delete %d; want 0 and 0", ins.Maintained, del.Maintained)
	}
	if st := s.Stats(); st.CacheEntries != 0 || st.MaintainedEntries != 0 {
		t.Errorf("after a NoCache query and two commits: %d cache entries, %d maintained; want 0 and 0",
			st.CacheEntries, st.MaintainedEntries)
	}

	req.NoCache = false
	for _, want := range []Source{SourceComputed, SourceCached} {
		resp, err := s.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != want {
			t.Errorf("plain query after the commits: source %q, want %q", resp.Source, want)
		}
	}

	// A standing answer, maintained by a commit, stays maintained through a
	// NoCache recompute.
	if _, err := s.Insert("r2", dataset.Tuple{Key: "g0001", Attrs: []float64{5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	req.NoCache = true
	if resp, err := s.Query(ctx, req); err != nil || resp.Source != SourceComputed {
		t.Fatalf("NoCache query over a maintained answer: %+v, %v", resp, err)
	}
	req.NoCache = false
	if resp, err := s.Query(ctx, req); err != nil || resp.Source != SourceMaintained {
		t.Errorf("after the NoCache recompute: %+v, %v; want source %q", resp, err, SourceMaintained)
	}
	if st := s.Stats(); st.CacheEntries != 1 || st.MaintainedEntries != 1 {
		t.Errorf("%d cache entries, %d maintained; want 1 and 1", st.CacheEntries, st.MaintainedEntries)
	}
}

// TestInsertMatchesOracle is the live-maintenance property test the
// acceptance criteria name: random inserts through the service must leave
// every subsequent answer identical to a from-scratch recompute on the
// oracle path, and the answers must come from the maintained entry, not a
// recompute.
func TestInsertMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 4; trial++ {
		s := New(Config{})
		agg := rng.Intn(2)
		local := 2 + rng.Intn(2)
		groups := 2 + rng.Intn(3)
		r1 := testRelation("r1", 20+rng.Intn(30), local, agg, groups, int64(trial)*2+1)
		r2 := testRelation("r2", 20+rng.Intn(30), local, agg, groups, int64(trial)*2+2)
		oracle := core.Query{
			R1: r1.Clone(), R2: r2.Clone(),
			Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
		}
		oracle.K = oracle.KMin() + rng.Intn(oracle.Width()-oracle.KMin()+1)
		if _, err := s.Register("r1", r1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register("r2", r2); err != nil {
			t.Fatal(err)
		}
		req := QueryRequest{R1: "r1", R2: "r2", K: oracle.K, Algorithm: "grouping"}

		// Warm the cache so the first insert has an entry to promote.
		if _, err := s.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			name, rel := "r1", oracle.R1
			if rng.Intn(2) == 1 {
				name, rel = "r2", oracle.R2
			}
			tup := dataset.Tuple{
				Key:   fmt.Sprintf("g%04d", rng.Intn(groups)), // datagen key format
				Attrs: make([]float64, local+agg),
			}
			for i := range tup.Attrs {
				tup.Attrs[i] = float64(rng.Intn(100))
			}
			ins, err := s.Insert(name, tup)
			if err != nil {
				t.Fatal(err)
			}
			if ins.Maintained == 0 {
				t.Fatalf("trial %d step %d: insert maintained no entries", trial, step)
			}
			if _, err := rel.Append(tup); err != nil { // mirror on the oracle clone
				t.Fatal(err)
			}

			got, err := s.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Source != SourceMaintained {
				t.Fatalf("trial %d step %d: source = %q, want maintained", trial, step, got.Source)
			}
			want, err := core.Run(oracle, core.Grouping)
			if err != nil {
				t.Fatal(err)
			}
			assertPairsEqual(t, fmt.Sprintf("trial %d step %d", trial, step), got.Skyline, want.Skyline)
		}
		st := s.Stats()
		if st.Computed != 1 {
			t.Errorf("trial %d: %d full computations across 10 inserts, want 1", trial, st.Computed)
		}
		s.Close()
	}
}

// TestWarmPathSpeedup is the acceptance criterion: a repeated query must
// be at least 10x faster than a cold ksjq-style run. The margin in
// practice is orders of magnitude (a cache hit is a map lookup), so the
// test is far from its threshold.
func TestWarmPathSpeedup(t *testing.T) {
	s := newTestService(t, Config{})
	oracle := registerPair(t, s, 400)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "grouping"}
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// Cold: the better of two from-scratch engine runs (oracle clones, so
	// the service's resident index cannot help).
	cold := time.Duration(1 << 62)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := core.Run(oracle, core.Grouping); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < cold {
			cold = d
		}
	}

	// Warm: the better of several cache hits.
	warm := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		resp, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceCached {
			t.Fatalf("warm query source = %q, want cached", resp.Source)
		}
		if d := time.Since(t0); d < warm {
			warm = d
		}
	}
	if warm*10 > cold {
		t.Errorf("warm path not >=10x faster: cold=%v warm=%v (%.1fx)",
			cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v speedup=%.0fx", cold, warm, float64(cold)/float64(warm))
}

func TestInsertInvalidatesUnpromotableEntries(t *testing.T) {
	// A naive/max-aggregator answer cannot be maintained (the grouping
	// algorithm behind the maintainer requires a strict aggregator), so an
	// insert must invalidate it and the next query must recompute.
	s := newTestService(t, Config{})
	registerPair(t, s, 30)
	req := QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "naive"}
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Insert("r1", dataset.Tuple{Key: "g0000", Attrs: []float64{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Maintained != 0 || ins.Invalidated != 1 {
		t.Errorf("maintained=%d invalidated=%d, want 0/1", ins.Maintained, ins.Invalidated)
	}
	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceComputed {
		t.Errorf("post-insert source = %q, want computed", resp.Source)
	}
	if resp.Versions != [2]uint64{2, 1} {
		t.Errorf("versions = %v, want [2 1]", resp.Versions)
	}
}

func TestSelfJoinInsert(t *testing.T) {
	// One relation on both sides: a single physical insert must be
	// absorbed on both sides of the maintained entry.
	r := testRelation("r", 25, 2, 0, 3, 7)
	s := newTestService(t, Config{})
	oracle := core.Query{R1: r.Clone(), R2: r.Clone(), Spec: join.Spec{Cond: join.Equality}, K: 3}
	if _, err := s.Register("r", r); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{R1: "r", R2: "r", K: 3}
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	tup := dataset.Tuple{Key: "g0001", Attrs: []float64{3, 3}}
	if _, err := s.Insert("r", tup); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.R1.Append(tup); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.R2.Append(tup); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != SourceMaintained {
		t.Errorf("self-join source = %q, want maintained", got.Source)
	}
	want, err := core.Run(oracle, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "self-join insert", got.Skyline, want.Skyline)
}

func TestBadRequests(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	ctx := context.Background()
	cases := []struct {
		name string
		req  QueryRequest
		want error
	}{
		{"unknown r1", QueryRequest{R1: "nope", R2: "r2", K: 5}, ErrUnknownRelation},
		{"unknown r2", QueryRequest{R1: "r1", R2: "nope", K: 5}, ErrUnknownRelation},
		{"bad join", QueryRequest{R1: "r1", R2: "r2", K: 5, Join: "outer"}, ErrBadRequest},
		{"bad agg", QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "avg"}, ErrBadRequest},
		{"bad algorithm", QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "quantum"}, ErrBadRequest},
		{"k too small", QueryRequest{R1: "r1", R2: "r2", K: 1}, ErrBadRequest},
		{"k too large", QueryRequest{R1: "r1", R2: "r2", K: 99}, ErrBadRequest},
		{"workers with naive", QueryRequest{R1: "r1", R2: "r2", K: 5, Algorithm: "naive", Workers: 4}, ErrBadRequest},
		{"grouping with non-strict agg", QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "grouping"}, ErrBadRequest},
	}
	for _, c := range cases {
		if _, err := s.Query(ctx, c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Auto under a non-strict aggregator is accepted and runs naive.
	got, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", NoCache: true})
	if err != nil {
		t.Fatalf("auto with non-strict agg: %v", err)
	}
	want, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "naive", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "naive" {
		t.Errorf("auto with non-strict agg ran %q, want naive", got.Algorithm)
	}
	assertPairsEqual(t, "auto+max vs naive+max", got.Skyline, want.Skyline)
	if _, err := s.Insert("nope", dataset.Tuple{Attrs: []float64{1}}); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("insert unknown relation: err = %v", err)
	}
	if _, err := s.Insert("r1", dataset.Tuple{Attrs: []float64{1}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("insert bad schema: err = %v", err)
	}
	// Non-finite skyline attributes and NaN bands are rejected at the
	// insert door (dataset.ErrBadSchema surfaced as a bad request), so no
	// unjoinable or domination-opaque tuple ever enters a served relation.
	for name, tup := range map[string]dataset.Tuple{
		"NaN attr":  {Key: "g0001", Attrs: []float64{math.NaN(), 1, 1, 1}},
		"+Inf attr": {Key: "g0001", Attrs: []float64{math.Inf(1), 1, 1, 1}},
		"NaN band":  {Key: "g0001", Band: math.NaN(), Attrs: []float64{1, 1, 1, 1}},
	} {
		if _, err := s.Insert("r1", tup); !errors.Is(err, ErrBadRequest) {
			t.Errorf("insert %s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if _, err := s.Register("r1", testRelation("dup", 5, 3, 1, 2, 9)); !errors.Is(err, ErrDuplicateRelation) {
		t.Errorf("duplicate register: err = %v", err)
	}
	// Aliasing one relation under two names would break version
	// coherence (an insert via one name would leave the alias's cache
	// entries "current" over mutated data).
	shared := testRelation("shared", 5, 3, 1, 2, 10)
	if _, err := s.Register("alias1", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("alias2", shared); !errors.Is(err, ErrDuplicateRelation) {
		t.Errorf("aliased register: err = %v, want ErrDuplicateRelation", err)
	}
	if _, err := s.Register("", testRelation("x", 5, 3, 1, 2, 9)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty name register: err = %v", err)
	}
}

func TestInvalidRequestRejectedEvenWhenCached(t *testing.T) {
	// Accept/reject must not depend on cache state: a naive+max answer in
	// the cache shares the key with a grouping+max request (the key
	// normalizes the algorithm away), but grouping+max fails validation
	// and must still be rejected.
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "naive"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, Agg: "max", Algorithm: "grouping"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("grouping+max with warm cache: err = %v, want ErrBadRequest", err)
	}
}

// TestWorkersKeepAutoArm pins that a parallel degree never changes the arm
// auto picks: on two CPUs and on one, auto+workers runs the dominator arm
// serial auto would run on this large join.
func TestWorkersKeepAutoArm(t *testing.T) {
	s := newTestService(t, Config{})
	q := registerPair(t, s, 120)
	if n, err := join.CountPairs(q.R1, q.R2, q.Spec); err != nil || n <= core.AutoNaiveCap {
		t.Fatalf("join of %d pairs (%v), want over %d", n, err, core.AutoNaiveCap)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs int
		want  string
	}{{2, "dominator"}, {1, "dominator"}} {
		runtime.GOMAXPROCS(c.procs)
		resp, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5, Workers: 4, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Algorithm != c.want {
			t.Errorf("GOMAXPROCS=%d: auto+workers ran %q, want %s", c.procs, resp.Algorithm, c.want)
		}
	}
}

func TestRegisterCSV(t *testing.T) {
	s := newTestService(t, Config{})
	csv := "key,a0,a1\nA,1,2\nB,3,4\n"
	v, err := s.RegisterCSV("c", strings.NewReader(csv), dataset.ReadOptions{Local: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	rel, _, err := s.Relation("c")
	if err != nil || rel.Len() != 2 {
		t.Fatalf("Relation(c) = %v, %v", rel, err)
	}
	if _, err := s.RegisterCSV("bad", strings.NewReader("key\n"), dataset.ReadOptions{Local: 2}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad CSV: err = %v", err)
	}
	infos := s.Relations()
	if len(infos) != 1 || infos[0].Name != "c" || infos[0].Tuples != 2 {
		t.Errorf("Relations() = %+v", infos)
	}
}

func TestDeadline(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 200)
	_, err := s.Query(context.Background(), QueryRequest{
		R1: "r1", R2: "r2", K: 5, Algorithm: "grouping", Timeout: time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("nanosecond deadline: err = %v, want DeadlineExceeded", err)
	}
}

func TestOverload(t *testing.T) {
	// One worker slot, zero queue: while a slow query holds the slot,
	// a second is rejected with ErrOverloaded... but only queries that
	// miss the cache are admitted at all.
	s := newTestService(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	registerPair(t, s, 150)

	block := make(chan struct{})
	release, err := s.sched.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan error, 1)
	go func() {
		defer wg.Done()
		<-block
		_, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5})
		queued <- err
	}()
	close(block)
	// Give the queued query time to enter the wait queue, then overflow it.
	deadline := time.Now().Add(2 * time.Second)
	for s.sched.queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_, err = s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 6})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("overflow query: err = %v, want ErrOverloaded", err)
	}
	release()
	wg.Wait()
	if err := <-queued; err != nil {
		t.Errorf("queued query failed: %v", err)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.Stats().Rejected)
	}
}

func TestClose(t *testing.T) {
	s := New(Config{})
	registerPair(t, s, 20)
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5}); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close: err = %v", err)
	}
	if _, err := s.Insert("r1", dataset.Tuple{Attrs: []float64{1, 1, 1, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: err = %v", err)
	}
	if _, err := s.Register("x", testRelation("x", 5, 2, 0, 2, 3)); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: err = %v", err)
	}
}

// TestConcurrentQueriesAndInserts is the race-lane smoke test: readers
// and the single writer hammer the service together, and every answer a
// reader gets must be internally consistent (the -race build checks the
// rest).
func TestConcurrentQueriesAndInserts(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrent: 4, MaxQueue: 128})
	registerPair(t, s, 40)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := 5 + (i+w)%2
				if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: k}); err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 20; i++ {
			tup := dataset.Tuple{Key: fmt.Sprintf("g%04d", rng.Intn(5)), Attrs: []float64{
				float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)),
			}}
			name := "r1"
			if i%2 == 1 {
				name = "r2"
			}
			if _, err := s.Insert(name, tup); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles the answer must still match the oracle.
	rel1, _, err := s.Relation("r1")
	if err != nil {
		t.Fatal(err)
	}
	rel2, _, err := s.Relation("r2")
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.Query{R1: rel1.Clone(), R2: rel2.Clone(), Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 5}
	want, err := core.Run(oracle, core.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "post-storm", got.Skyline, want.Skyline)
}
