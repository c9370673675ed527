package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// drainWatch collects every event currently deliverable on w, waiting
// briefly for the pump to catch up, and returns them.
func drainWatch(t *testing.T, w *Watch, want int) []WatchEvent {
	t.Helper()
	evs := make([]WatchEvent, 0, want)
	for len(evs) < want {
		evs = append(evs, nextEvent(t, w))
	}
	select {
	case ev := <-w.Events():
		t.Fatalf("watch delivered %d events, want %d (extra: %+v)", want+1, want, ev)
	case <-time.After(50 * time.Millisecond):
	}
	return evs
}

// TestInsertBatchMatchesOracle is the three-way ingest oracle the batch
// pipeline is pinned by: inserting a tuple set one at a time, as one
// group-committed batch, and recomputing from scratch must land on
// byte-identical skylines — across join conditions and aggregators — and
// the watch streams must replay to the same answer, the batch stream
// coalesced to one event per batch.
func TestInsertBatchMatchesOracle(t *testing.T) {
	conds := []struct {
		token string
		cond  join.Condition
	}{{"eq", join.Equality}, {"cross", join.Cross}, {"lt", join.BandLess}}
	aggs := []struct {
		token string
		agg   join.Aggregator
		alg   string
	}{{"sum", join.Sum, "grouping"}, {"max", join.Max, "naive"}}

	for _, tc := range conds {
		for _, ta := range aggs {
			t.Run(tc.token+"/"+ta.token, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(tc.token)*100 + len(ta.token))))
				r1 := testRelation("r1", 30, 3, 1, 5, 91)
				r2 := testRelation("r2", 30, 3, 1, 5, 92)
				oracle := core.Query{
					R1: r1.Clone(), R2: r2.Clone(),
					Spec: join.Spec{Cond: tc.cond, Agg: ta.agg}, K: 5,
				}
				batch1 := make([]dataset.Tuple, 8)
				for i := range batch1 {
					batch1[i] = randTuple(rng)
				}
				batch2 := make([]dataset.Tuple, 6)
				for i := range batch2 {
					batch2[i] = randTuple(rng)
				}

				req := QueryRequest{
					R1: "r1", R2: "r2", K: 5,
					Join: tc.token, Agg: ta.token, Algorithm: ta.alg,
				}
				newSvc := func() *Service {
					s := newTestService(t, Config{})
					if _, err := s.Register("r1", r1.Clone()); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Register("r2", r2.Clone()); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Query(context.Background(), req); err != nil {
						t.Fatal(err)
					}
					return s
				}
				seq, bat := newSvc(), newSvc()

				// Watches ride along where the maintainer admits the query
				// (strict aggregator only).
				var wSeq, wBat *Watch
				if ta.agg.Strict {
					var err error
					if wSeq, err = seq.Watch(context.Background(), req); err != nil {
						t.Fatal(err)
					}
					defer wSeq.Close()
					if wBat, err = bat.Watch(context.Background(), req); err != nil {
						t.Fatal(err)
					}
					defer wBat.Close()
				}

				// Sequential path: one Insert per tuple.
				for _, tup := range batch1 {
					if _, err := seq.Insert("r1", tup); err != nil {
						t.Fatal(err)
					}
				}
				for _, tup := range batch2 {
					if _, err := seq.Insert("r2", tup); err != nil {
						t.Fatal(err)
					}
				}
				// Batch path: one group commit per relation.
				ins1, err := bat.InsertBatch("r1", batch1)
				if err != nil {
					t.Fatal(err)
				}
				if ins1.ID != 30 || ins1.Count != len(batch1) || ins1.Version != 2 {
					t.Fatalf("r1 batch result = %+v, want ID 30, Count %d, Version 2", ins1, len(batch1))
				}
				ins2, err := bat.InsertBatch("r2", batch2)
				if err != nil {
					t.Fatal(err)
				}
				if ins2.ID != 30 || ins2.Count != len(batch2) || ins2.Version != 2 {
					t.Fatalf("r2 batch result = %+v, want ID 30, Count %d, Version 2", ins2, len(batch2))
				}

				// Oracle path: from-scratch recompute over mirrored clones.
				if _, err := oracle.R1.AppendBatch(batch1); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.R2.AppendBatch(batch2); err != nil {
					t.Fatal(err)
				}
				alg := core.Grouping
				if !ta.agg.Strict {
					alg = core.Naive
				}
				want, err := core.Run(oracle, alg)
				if err != nil {
					t.Fatal(err)
				}

				gotSeq, err := seq.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				gotBat, err := bat.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				label := tc.token + "/" + ta.token
				assertPairsEqual(t, label+" sequential", gotSeq.Skyline, want.Skyline)
				assertPairsEqual(t, label+" batch", gotBat.Skyline, want.Skyline)
				if wantV := [2]uint64{1 + uint64(len(batch1)), 1 + uint64(len(batch2))}; gotSeq.Versions != wantV {
					t.Fatalf("%s sequential versions = %v, want %v", label, gotSeq.Versions, wantV)
				}
				if gotBat.Versions != [2]uint64{2, 2} {
					t.Fatalf("%s batch versions = %v, want [2 2]", label, gotBat.Versions)
				}
				if ta.agg.Strict {
					// Both paths must serve from live maintenance, not a
					// recompute.
					if gotSeq.Source != SourceMaintained || gotBat.Source != SourceMaintained {
						t.Fatalf("%s sources = %q/%q, want maintained/maintained", label, gotSeq.Source, gotBat.Source)
					}
					// Sequential stream: snapshot + one delta per insert.
					// Batch stream: snapshot + one coalesced delta per batch.
					evSeq := drainWatch(t, wSeq, 1+len(batch1)+len(batch2))
					evBat := drainWatch(t, wBat, 3)
					repSeq := make(map[[2]int][]float64)
					for _, ev := range evSeq {
						applyDelta(t, repSeq, ev)
					}
					repBat := make(map[[2]int][]float64)
					for _, ev := range evBat {
						applyDelta(t, repBat, ev)
					}
					if evBat[1].Versions != [2]uint64{2, 1} || evBat[2].Versions != [2]uint64{2, 2} {
						t.Fatalf("%s batch event versions = %v, %v, want [2 1], [2 2]",
							label, evBat[1].Versions, evBat[2].Versions)
					}
					for _, p := range want.Skyline {
						if _, ok := repSeq[[2]int{p.Left, p.Right}]; !ok {
							t.Fatalf("%s sequential replay lost (%d,%d)", label, p.Left, p.Right)
						}
						if _, ok := repBat[[2]int{p.Left, p.Right}]; !ok {
							t.Fatalf("%s batch replay lost (%d,%d)", label, p.Left, p.Right)
						}
					}
					if len(repSeq) != len(want.Skyline) || len(repBat) != len(want.Skyline) {
						t.Fatalf("%s replays hold %d/%d pairs, oracle %d",
							label, len(repSeq), len(repBat), len(want.Skyline))
					}
				}
			})
		}
	}
}

// TestInsertBatchValidation pins the request-level contracts: empty
// batches and invalid tuples are client errors, and a failed batch leaves
// the relation (and its version) untouched.
func TestInsertBatchValidation(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	if _, err := s.InsertBatch("r1", nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch error = %v, want ErrBadRequest", err)
	}
	if _, err := s.InsertBatch("nope", []dataset.Tuple{randTuple(rand.New(rand.NewSource(1)))}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation error = %v, want ErrUnknownRelation", err)
	}
	bad := []dataset.Tuple{randTuple(rand.New(rand.NewSource(2))), {Key: "g0", Attrs: []float64{1}}}
	if _, err := s.InsertBatch("r1", bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("short tuple error = %v, want ErrBadRequest", err)
	}
	info, err := s.RelationInfo("r1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Tuples != 20 {
		t.Fatalf("failed batch moved the relation: version %d, %d tuples", info.Version, info.Tuples)
	}
}

// TestInsertBatchStats pins the counter semantics: Inserts counts tuples
// (so per-tuple dashboards keep working), Batches counts group commits.
func TestInsertBatchStats(t *testing.T) {
	s := newTestService(t, Config{})
	registerPair(t, s, 20)
	rng := rand.New(rand.NewSource(3))
	batch := make([]dataset.Tuple, 5)
	for i := range batch {
		batch[i] = randTuple(rng)
	}
	if _, err := s.InsertBatch("r1", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("r2", randTuple(rng)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Inserts != 6 {
		t.Errorf("Inserts = %d, want 6 (tuples, not batches)", st.Inserts)
	}
	if st.Batches != 2 {
		t.Errorf("Batches = %d, want 2", st.Batches)
	}
}

// TestQueryDuringCommitWaitsAndHits replaces TestInsertBatchDoesNotBlockQuery.
// That test pinned "queries complete while a batch is in flight", which is
// exactly the behaviour the single exclusive section withdraws (DESIGN.md
// §7): a commit no longer releases the registry lock mid-way, so a reader
// that arrives during one waits for it — and then hits the advanced answer
// instead of recomputing beside it. Two writers commit small insert/delete
// batches into r1 and r2 while readers ask the maintained (r1, r2) answer
// and an unrelated warm (s1, s2) one: after warm-up nothing is computed
// again, every response is cached or maintained, and each skyline equals a
// from-scratch recompute of the relation states at the versions the
// response carries.
func TestQueryDuringCommitWaitsAndHits(t *testing.T) {
	s := newTestService(t, Config{SweepInterval: -1})
	ctx := context.Background()
	// history[name][version] is the relation's content at that version;
	// each writer fills in its own relation's, read back after the join.
	history := make(map[string]map[uint64]*dataset.Relation)
	for i, name := range []string{"r1", "r2", "s1", "s2"} {
		n := 300
		if name[0] == 's' {
			n = 30
		}
		r := testRelation(name, n, 3, 1, 5, int64(51+i))
		history[name] = map[uint64]*dataset.Relation{1: r.Clone()}
		if _, err := s.Register(name, r); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []QueryRequest{{R1: "r1", R2: "r2", K: 5}, {R1: "s1", R2: "s2", K: 5}}
	for _, req := range reqs {
		if _, err := s.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	warmed := s.Stats().Computed

	var writers, readers sync.WaitGroup
	for i, name := range []string{"r1", "r2"} {
		writers.Add(1)
		go func(name string, seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			mirror := history[name][1].Clone()
			for i := 0; i < 40; i++ {
				version, _, err := stormStep(s, name, mirror, rng, i)
				if err != nil {
					t.Errorf("%s commit %d: %v", name, i, err)
					return
				}
				history[name][version] = mirror.Clone()
			}
		}(name, int64(55+i))
	}
	// Each reader keeps a response whenever it differs from its previous one
	// for that query (other versions, or another skyline slice at the same
	// versions); the rest are repeats of an answer already kept.
	type answer struct {
		req  int
		resp *QueryResponse
	}
	sameSlice := func(a, b []join.Pair) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	stop := make(chan struct{})
	kept := make([][]answer, 3)
	for r := range kept {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			last := make([]*QueryResponse, len(reqs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for qi, req := range reqs {
					resp, err := s.Query(ctx, req)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if resp.Source == SourceComputed {
						t.Errorf("reader %d: %+v at %v was recomputed beside a commit, want a hit", r, req, resp.Versions)
						return
					}
					if l := last[qi]; l == nil || l.Versions != resp.Versions || !sameSlice(l.Skyline, resp.Skyline) {
						kept[r] = append(kept[r], answer{qi, resp})
						last[qi] = resp
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	if got := s.Stats().Computed; got != warmed {
		t.Errorf("Computed moved %d -> %d during the storm, want every query after warm-up to hit", warmed, got)
	}
	type stamp struct {
		req      int
		versions [2]uint64
	}
	oracle := make(map[stamp][]join.Pair)
	moved := false
	for r, answers := range kept {
		for _, a := range answers {
			req, v := reqs[a.req], a.resp.Versions
			at := stamp{a.req, v}
			if _, ok := oracle[at]; !ok {
				r1, r2 := history[req.R1][v[0]], history[req.R2][v[1]]
				if r1 == nil || r2 == nil {
					t.Fatalf("reader %d: %+v answered at versions %v, which no commit produced", r, req, v)
				}
				oracle[at] = recompute(t, core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: req.K})
			}
			assertPairsIdentical(t, fmt.Sprintf("reader %d %+v at %v", r, req, v), a.resp.Skyline, oracle[at])
			moved = moved || (a.req == 0 && v != [2]uint64{1, 1})
		}
	}
	if !moved {
		t.Error("no reader saw the maintained answer past its first version; the storm never overlapped the readers")
	}
}
