package service

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// TestHeldStateUnderCommits runs cold k = 10 and k = 11 queries (serial
// and pooled) and /v1/verify votes on one service while a writer commits
// inserts and deletes to both relations. The queries and votes read and
// publish the shared resident's k-dependent table; every commit drops
// it. Every answer and every vote must equal a no-resident engine run over
// the rows at the versions the reply names. The race lane repeats it.
func TestHeldStateUnderCommits(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	type snapKey struct {
		name    string
		version uint64
	}
	snaps := map[snapKey]*dataset.Relation{}
	var snapMu sync.Mutex
	snapshot := func(name string) {
		rel, v, err := s.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		snapMu.Lock()
		snaps[snapKey{name, v}] = rel.Clone()
		snapMu.Unlock()
	}
	for i, name := range []string{"ra", "rb"} {
		if _, err := s.Register(name, testRelation(name, 240, 5, 2, 10, int64(61+i))); err != nil {
			t.Fatal(err)
		}
		snapshot(name)
	}

	type answer struct {
		k        int
		versions [2]uint64
		skyline  []join.Pair
	}
	type vote struct {
		k         int
		versions  [2]uint64
		vectors   [][]float64
		dominated []bool
	}
	var (
		mu      sync.Mutex
		answers []answer
		votes   []vote
		wg      sync.WaitGroup
	)
	ctx := context.Background()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := 10 + (i+w)%2
				out, err := s.Query(ctx, QueryRequest{R1: "ra", R2: "rb", K: k, Algorithm: "dominator", Workers: 2 * w, NoCache: true})
				if err != nil {
					t.Errorf("query %d/%d: %v", w, i, err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{k, out.Versions, out.Skyline})
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < 8; i++ {
			k := 10 + i%2
			vectors := make([][]float64, 8)
			for n := range vectors {
				v := make([]float64, 12)
				for j := range v {
					v[j] = rng.Float64()
				}
				vectors[n] = v
			}
			out, err := s.Verify(ctx, VerifyRequest{R1: "ra", R2: "rb", K: k, Vectors: vectors})
			if err != nil {
				t.Errorf("verify %d: %v", i, err)
				return
			}
			mu.Lock()
			votes = append(votes, vote{k, out.Versions, vectors, out.Dominated})
			mu.Unlock()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(63))
		for i := 0; i < 10; i++ {
			name := []string{"ra", "rb"}[i%2]
			if i%4 < 2 {
				ts := make([]dataset.Tuple, 3)
				for n := range ts {
					attrs := make([]float64, 7)
					for j := range attrs {
						attrs[j] = rng.Float64()
					}
					ts[n] = dataset.Tuple{Key: fmt.Sprintf("g%d", rng.Intn(10)), Attrs: attrs}
				}
				if _, err := s.InsertBatch(name, ts); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			} else if _, err := s.DeleteBatch(name, []int{rng.Intn(100), 100 + rng.Intn(100)}); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
			snapshot(name)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	at := func(v [2]uint64) core.Query {
		r1, r2 := snaps[snapKey{"ra", v[0]}], snaps[snapKey{"rb", v[1]}]
		if r1 == nil || r2 == nil {
			t.Fatalf("no snapshot at versions %v", v)
		}
		return core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
	}
	for _, a := range answers {
		q := at(a.versions)
		q.K = a.k
		want, err := core.Exec(ctx, q, core.ExecOptions{Algorithm: core.DominatorBased})
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, fmt.Sprintf("k=%d at %v", a.k, a.versions), a.skyline, want.Skyline)
	}
	for _, v := range votes {
		q := at(v.versions)
		q.K = v.k
		want, err := core.AnyDominatorsContext(ctx, q, v.vectors)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(v.dominated, want) {
			t.Fatalf("votes k=%d at %v: %v, want %v", v.k, v.versions, v.dominated, want)
		}
	}
}
