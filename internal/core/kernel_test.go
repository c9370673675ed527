package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/join"
)

// execArm runs one cell arm with explicit worker, Emit and Limit settings,
// returning the canonical-order skyline and the stats.
func execArm(t testing.TB, q Query, alg Algorithm, workers int, emitMode bool, limit int) ([]join.Pair, Stats) {
	t.Helper()
	o := ExecOptions{Algorithm: alg, Workers: workers, Limit: limit}
	streamed := []join.Pair{} // compares like a collected empty answer
	if emitMode {
		o.Emit = func(p join.Pair) bool { streamed = append(streamed, p); return true }
	}
	res, err := Exec(context.Background(), q, o)
	if err != nil {
		t.Fatal(err)
	}
	if emitMode {
		join.SortPairs(streamed)
		return streamed, res.Stats
	}
	return res.Skyline, res.Stats
}

// TestKernelEquivalenceOracle pins every execution path of both cell arms,
// grouping and dominator-based, to one answer: serial and pooled runs,
// each collected and streamed through Emit, must across all six join
// conditions produce Run(q, Naive)'s skyline byte for byte (indices and
// attribute vectors; a collected empty answer is empty alike) and spend
// equal DominationTests — the determinism documented on
// Stats.DominationTests. Only cells over poolChunk candidates go to the
// pool, so the test also checks that some did, per arm. A capped run
// confirms tuples in cell order, so it is pinned as a full-size subset of
// the skyline.
func TestKernelEquivalenceOracle(t *testing.T) {
	for _, alg := range []Algorithm{Grouping, DominatorBased} {
		t.Run(alg.Token(), func(t *testing.T) { kernelEquivalence(t, alg) })
	}
}

func kernelEquivalence(t *testing.T, alg Algorithm) {
	rng := rand.New(rand.NewSource(611))
	conds := []join.Condition{
		join.Equality, join.Cross,
		join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq,
	}
	var pooledChunks int64
	poolStatsHook = func(chunks []int64) {
		for _, c := range chunks {
			pooledChunks += c
		}
	}
	defer func() { poolStatsHook = nil }()
	for _, cond := range conds {
		for trial := 0; trial < 7; trial++ {
			var q Query
			if trial == 6 {
				// One single-group instance per condition whose cells exceed
				// poolChunk and hold dominated candidates, so the pooled runs
				// reach the pool and must clear keep bits there.
				big := rand.New(rand.NewSource(618))
				r1 := randRelation(big, "r1", 50, 3, 2, 1, 1000)
				r2 := randRelation(big, "r2", 50, 3, 2, 1, 1000)
				q = Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
				q.K = q.Width()
			} else {
				agg := rng.Intn(3) // a >= 2 puts even the "yes" cell through verification
				r1 := randRelation(rng, "r1", 20+rng.Intn(60), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
				r2 := randRelation(rng, "r2", 20+rng.Intn(60), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
				q = Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
			}
			label := fmt.Sprintf("cond=%v trial=%d k=%d", cond, trial, q.K)

			naive, err := Run(q, Naive)
			if err != nil {
				t.Fatal(err)
			}
			oracle := naive.Skyline
			member := make(map[[2]int]bool, len(oracle))
			for _, p := range oracle {
				member[[2]int{p.Left, p.Right}] = true
			}
			_, serial := execArm(t, q, alg, 1, false, 0)
			for _, workers := range []int{1, 4} {
				for _, emitMode := range []bool{false, true} {
					got, st := execArm(t, q, alg, workers, emitMode, 0)
					if !reflect.DeepEqual(got, oracle) {
						t.Fatalf("%s workers=%d emit=%v: skyline differs from Run(q, Naive)", label, workers, emitMode)
					}
					if st.DominationTests != serial.DominationTests {
						t.Fatalf("%s workers=%d emit=%v: %d tests, serial %d — count must depend on neither path nor workers",
							label, workers, emitMode, st.DominationTests, serial.DominationTests)
					}
				}

				limited, _ := execArm(t, q, alg, workers, false, 3)
				if len(limited) != min(3, len(oracle)) {
					t.Fatalf("%s workers=%d limit: %d tuples, want %d", label, workers, len(limited), min(3, len(oracle)))
				}
				for _, p := range limited {
					if !member[[2]int{p.Left, p.Right}] {
						t.Fatalf("%s workers=%d limit: (%d,%d) is not in the skyline", label, workers, p.Left, p.Right)
					}
				}
			}
		}
	}
	if pooledChunks == 0 {
		t.Fatal("no cell exceeded poolChunk: the pooled runs never reached the pool")
	}
}

// skewedQuery builds a single-join-group workload: every tuple shares one
// key, so the grouping loop sees one giant cell instead of many small ones
// — the shape that serialized the old per-cell striding.
func skewedQuery(n int) Query {
	rng := rand.New(rand.NewSource(618))
	r1 := randRelation(rng, "r1", n, 5, 2, 1, 1000)
	r2 := randRelation(rng, "r2", n, 5, 2, 1, 1000)
	return Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 11}
}

// TestPoolSharesSkewedCell pins the work-stealing property the pool exists
// for: on a single giant cell, Workers=4 must engage more than one worker
// (the old static per-cell sharding kept extra workers idle on skewed
// cells in wall-clock terms; the pool's cursor splits the cell into chunks
// any worker can claim). Chunk accounting is also checked: claims must
// cover the candidate list exactly once.
func TestPoolSharesSkewedCell(t *testing.T) {
	// n=700 gives a ~3000-candidate cell (a dozen chunks, ~200ms serial) —
	// long enough that even a single-CPU scheduler preempts the first
	// worker and lets others reach the cursor.
	q := skewedQuery(700)
	serial, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if totalChunks(serial.Stats) < 4 {
		t.Fatalf("instance too small: verified cells %v, need a cell well over %d candidates for the pool path",
			verifiedCellSizes(serial.Stats), poolChunk)
	}

	defer func() { poolStatsHook = nil }()
	// Engagement depends on the scheduler preempting a busy worker so
	// another can reach the cursor; on a loaded single-CPU runner one
	// attempt can lose that race, so allow a few.
	for attempt := 0; attempt < 5; attempt++ {
		var chunks []int64
		poolStatsHook = func(c []int64) { chunks = append([]int64(nil), c...) }
		par, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSkyline(t, "skewed cell", par, serial)
		if par.Stats.DominationTests != serial.Stats.DominationTests {
			t.Fatalf("pooled run did %d tests, serial %d", par.Stats.DominationTests, serial.Stats.DominationTests)
		}
		if chunks == nil {
			t.Fatal("poolStatsHook not called: pool never ran")
		}
		engaged, total := 0, int64(0)
		for _, c := range chunks {
			if c > 0 {
				engaged++
			}
			total += c
		}
		if want := totalChunks(par.Stats); total != want {
			t.Fatalf("workers claimed %d chunks, want %d (each candidate range exactly once)", total, want)
		}
		if engaged > 1 {
			return
		}
		t.Logf("attempt %d: only %d worker engaged (chunks %v), retrying", attempt, engaged, chunks)
	}
	t.Fatal("Workers=4 never engaged more than one worker on a single giant cell")
}

// totalChunks returns how many cursor claims a grouping run's verified
// cells should produce. Only cells larger than poolChunk go to the pool;
// the skewed workload has one such cell per verified group, each claimed
// in ceil(n/poolChunk) chunks.
func totalChunks(st Stats) int64 {
	var total int64
	for _, n := range verifiedCellSizes(st) {
		if n > poolChunk {
			total += int64((n + poolChunk - 1) / poolChunk)
		}
	}
	return total
}

// verifiedCellSizes reconstructs the per-cell candidate counts of the
// skewed single-group workload from its stats: with one join group the
// four cells are SS×SS (yes; verified here because a=2), SS×SN, SN×SS and
// SN×SN.
func verifiedCellSizes(st Stats) []int {
	return []int{
		st.SS1 * st.SS2,
		st.SS1 * st.SN2,
		st.SN1 * st.SS2,
		st.SN1 * st.SN2,
	}
}

// BenchmarkVerifyCellAllocs measures the steady-state allocations of a
// full grouping run — the scratch-pooling target: keep bitsets, partner
// caches, worker state and subset indexes must be reused across cells, so
// repeated runs settle near the per-run floor (result slices, the join
// arenas, categorization).
func BenchmarkVerifyCellAllocs(b *testing.B) {
	q := skewedQuery(220)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if workers > 1 {
					_, err = Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: workers})
				} else {
					_, err = Run(q, Grouping)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkewedCell is the scheduling acceptance benchmark: one giant
// join cell, verified with 1, 2 and 4 workers. Under the old static
// per-cell striding extra workers idled on skew; with the pool's shared
// cursor the speedup should track the worker count on a multi-core
// machine (on a single-CPU runner all settings time alike).
func BenchmarkSkewedCell(b *testing.B) {
	q := skewedQuery(400)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
