// One testing.B benchmark per figure of the paper's evaluation (Sec. 7),
// plus micro-benchmarks for the three KSJQ algorithms and the three find-k
// algorithms at the paper's default parameters. Figure benchmarks run at
// the Small scale (see internal/experiments); the cmd/ksjq-experiments
// binary regenerates the same figures at paper scale with -scale full.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/join"
	"repro/internal/service"
	"repro/ksjq"
)

func benchFigure(b *testing.B, scale experiments.Scale, pick func(*experiments.Suite) func() []experiments.Row) {
	b.Helper()
	s := experiments.NewSuite(scale, nil)
	run := pick(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := run(); len(rows) == 0 {
			b.Fatal("figure produced no rows")
		}
	}
}

func BenchmarkFig1a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig1a })
}

func BenchmarkFig1b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig1b })
}

func BenchmarkFig2a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig2a })
}

func BenchmarkFig2b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig2b })
}

func BenchmarkFig3a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig3a })
}

func BenchmarkFig3b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig3b })
}

func BenchmarkFig4(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig4 })
}

func BenchmarkFig5a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig5a })
}

func BenchmarkFig5b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig5b })
}

func BenchmarkFig6a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig6a })
}

func BenchmarkFig6b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig6b })
}

func BenchmarkFig7(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig7 })
}

func BenchmarkFig8a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig8a })
}

func BenchmarkFig8b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig8b })
}

func BenchmarkFig9a(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig9a })
}

func BenchmarkFig9b(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig9b })
}

func BenchmarkFig10(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig10 })
}

func BenchmarkFig11(b *testing.B) {
	benchFigure(b, experiments.Small, func(s *experiments.Suite) func() []experiments.Row { return s.Fig11 })
}

// defaultQuery builds the paper's Table 7 default workload at a
// benchmark-friendly size.
func defaultQuery(n int) core.Query {
	r1 := datagen.MustGenerate(datagen.Config{
		Name: "R1", N: n, Local: 5, Agg: 2, Groups: 10, Dist: datagen.Independent, Seed: 2017,
	})
	r2 := datagen.MustGenerate(datagen.Config{
		Name: "R2", N: n, Local: 5, Agg: 2, Groups: 10, Dist: datagen.Independent, Seed: 2018,
	})
	return core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 11}
}

func benchAlgorithm(b *testing.B, alg core.Algorithm) {
	b.Helper()
	q := defaultQuery(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(q, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the three KSJQ algorithms head to head at the default
// parameters (d=7, a=2, k=11, g=10).
func BenchmarkAlgorithmGrouping(b *testing.B)  { benchAlgorithm(b, core.Grouping) }
func BenchmarkAlgorithmDominator(b *testing.B) { benchAlgorithm(b, core.DominatorBased) }
func BenchmarkAlgorithmNaive(b *testing.B)     { benchAlgorithm(b, core.Naive) }

func benchFindK(b *testing.B, alg core.FindKAlgorithm) {
	b.Helper()
	q := defaultQuery(300)
	q.Spec.Agg = join.Sum
	q.R1 = datagen.MustGenerate(datagen.Config{Name: "R1", N: 300, Local: 5, Groups: 10, Seed: 2017})
	q.R2 = datagen.MustGenerate(datagen.Config{Name: "R2", N: 300, Local: 5, Groups: 10, Seed: 2018})
	q.K = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FindK(q, 250, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the three find-k strategies at δ=250 (the Small-scale analogue
// of the paper's δ=10000).
func BenchmarkFindKBinary(b *testing.B) { benchFindK(b, core.FindKBinary) }
func BenchmarkFindKRange(b *testing.B)  { benchFindK(b, core.FindKRange) }
func BenchmarkFindKNaive(b *testing.B)  { benchFindK(b, core.FindKNaive) }

// bandQuery builds a Sec. 6.6-style workload: R1.Band < R2.Band (arrival
// before departure), with ~n²/2 join-compatible pairs at size n.
func bandQuery(n int) core.Query {
	r1 := datagen.MustGenerate(datagen.Config{
		Name: "legs1", N: n, Local: 3, Groups: 10, Dist: datagen.Independent, Seed: 2017,
	})
	r2 := datagen.MustGenerate(datagen.Config{
		Name: "legs2", N: n, Local: 3, Groups: 10, Dist: datagen.Independent, Seed: 2018,
	})
	return core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.BandLess}, K: 4}
}

// BenchmarkBandJoinNaive is the retained O(n1·n2) nested-scan baseline for
// band-join pair counting (the find-k bounds' hot operation).
func BenchmarkBandJoinNaive(b *testing.B) {
	q := bandQuery(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.ScanCountPairs(q.R1, q.R2, q.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandJoinIndexed is the same operation through the band-sorted
// index: O((n1+n2) log n2) — partner ranges are located by binary search
// and counted by their width, never enumerated.
func BenchmarkBandJoinIndexed(b *testing.B) {
	q := bandQuery(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.CountPairs(q.R1, q.R2, q.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandJoinEnumerate locks in indexed full-pair enumeration
// (matches included) versus the nested scan at the same size.
func BenchmarkBandJoinEnumerate(b *testing.B) {
	q := bandQuery(400)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.ScanPairs(q.R1, q.R2, q.Spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.Pairs(q.R1, q.R2, q.Spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchService builds a query service with the default workload resident,
// one answer already cached, and returns the repeated request.
func benchService(b *testing.B, n int) (*service.Service, service.QueryRequest, core.Query) {
	b.Helper()
	q := defaultQuery(n)
	svc := service.New(service.Config{})
	b.Cleanup(func() { svc.Close() })
	if _, err := svc.Register("r1", q.R1); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Register("r2", q.R2); err != nil {
		b.Fatal(err)
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: q.K, Algorithm: "grouping"}
	if _, err := svc.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	return svc, req, q
}

// BenchmarkServiceCold is the baseline the service amortizes away: a full
// from-scratch engine run (index construction included) per query, i.e.
// what every ksjq.Run invocation paid before the service layer existed.
func BenchmarkServiceCold(b *testing.B) {
	q := defaultQuery(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(q, core.Grouping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceWarm is the repeated-query path: same relations, same
// normalized query, answered from the service's cache. The acceptance
// criterion is >=10x over BenchmarkServiceCold; measured gaps are orders
// of magnitude.
func BenchmarkServiceWarm(b *testing.B) {
	svc, req, _ := benchService(b, 300)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Source == service.SourceComputed {
			b.Fatal("warm benchmark recomputed")
		}
	}
}

// BenchmarkServiceResident isolates the resident-index effect: the cache
// is bypassed, so every iteration is a real engine run, but over the
// service's shared core.Resident instead of rebuilding indexes.
func BenchmarkServiceResident(b *testing.B) {
	svc, req, _ := benchService(b, 300)
	req.NoCache = true
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceInsert measures live maintenance: each insert updates
// the cached answer incrementally through the promoted maintainer (the
// relation grows as the benchmark runs, so this is an amortized figure).
func BenchmarkServiceInsert(b *testing.B) {
	svc, req, q := benchService(b, 300)
	// Promote the cached entry once so iterations measure absorb, not
	// promotion.
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	d := q.R1.D()
	newTuple := func() dataset.Tuple {
		attrs := make([]float64, d)
		for i := range attrs {
			attrs[i] = rng.Float64()
		}
		// datagen keys are "g%04d": the inserted tuple must land in a real
		// group, or the benchmark measures the zero-partner early exit.
		return dataset.Tuple{Key: fmt.Sprintf("g%04d", rng.Intn(10)), Attrs: attrs}
	}
	if _, err := svc.Insert("r1", newTuple()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Insert("r1", newTuple()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	resp, err := svc.Query(ctx, req)
	if err != nil {
		b.Fatalf("maintained query after inserts: %v", err)
	}
	if resp.Source != service.SourceMaintained {
		b.Fatalf("maintained query after inserts: source=%v", resp.Source)
	}
}

// ingestTuples pregenerates n tuples that land in the default workload's
// real groups (datagen keys are "g%04d"), so every insert exercises the
// join rather than the zero-partner early exit.
func ingestTuples(rng *rand.Rand, d, n int) []dataset.Tuple {
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		attrs := make([]float64, d)
		for j := range attrs {
			attrs[j] = rng.Float64()
		}
		ts[i] = dataset.Tuple{Key: fmt.Sprintf("g%04d", rng.Intn(10)), Attrs: attrs}
	}
	return ts
}

// BenchmarkInsertLoop is the per-tuple baseline the batched ingest path
// is measured against: 1000 tuples through 1000 Insert calls at n=2000,
// each paying its own version bump, cache take/restore, resident
// reclamation, and absorb.
func BenchmarkInsertLoop(b *testing.B) { benchIngest(b, false) }

// BenchmarkInsertBatch is the group-commit path: the same 1000 tuples as
// one InsertBatch — one version bump, one resident extension, one absorb
// pass, one cache restore. The PR 7 acceptance target is >=5x tuples/sec
// over BenchmarkInsertLoop (compare ns/op directly: both spend one
// iteration per 1000 tuples).
func BenchmarkInsertBatch(b *testing.B) { benchIngest(b, true) }

func benchIngest(b *testing.B, batched bool) {
	const batchSize = 1000
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh service per iteration (untimed), so every iteration
		// ingests into exactly the n=2000 workload rather than into
		// relations earlier iterations already grew.
		b.StopTimer()
		q := defaultQuery(2000)
		// K = 10 keeps the maintained answer at a realistic size (~60
		// pairs): the default K = 11 sits at this workload's skyline
		// blow-up point (thousands of members), where the verification
		// kernel — identical on both paths — drowns the ingest pipeline
		// costs this benchmark compares.
		q.K = 10
		svc := service.New(service.Config{})
		if _, err := svc.Register("r1", q.R1); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Register("r2", q.R2); err != nil {
			b.Fatal(err)
		}
		req := service.QueryRequest{R1: "r1", R2: "r2", K: q.K, Algorithm: "grouping"}
		if _, err := svc.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
		d := q.R1.D()
		// Promote the cached entry so the iteration measures
		// maintenance, not promotion.
		if _, err := svc.Insert("r1", ingestTuples(rng, d, 1)[0]); err != nil {
			b.Fatal(err)
		}
		ts := ingestTuples(rng, d, batchSize)
		b.StartTimer()
		if batched {
			if _, err := svc.InsertBatch("r1", ts); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, tup := range ts {
				if _, err := svc.Insert("r1", tup); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatalf("maintained query after ingest: %v", err)
		}
		if resp.Source != service.SourceMaintained {
			b.Fatalf("maintained query after ingest: source=%v", resp.Source)
		}
		svc.Close()
	}
	b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkResidentExtend isolates the appendable-resident effect: per
// iteration, absorb a 1000-row appended tail into a resident built over
// the n=2000 workload (setup — clone, build, append — is untimed).
func BenchmarkResidentExtend(b *testing.B) {
	const tail = 1000
	base := defaultQuery(2000)
	rng := rand.New(rand.NewSource(29))
	d := base.R1.D()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := base
		q.R1 = base.R1.Clone()
		q.R2 = base.R2.Clone()
		res, err := core.NewResident(q)
		if err != nil {
			b.Fatal(err)
		}
		first, err := q.R1.AppendBatch(ingestTuples(rng, d, tail))
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, tail)
		for j := range ids {
			ids[j] = first + j
		}
		b.StartTimer()
		if err := res.Absorb(core.Left, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidentRebuild is what Absorb replaces: a from-scratch
// NewResident over the same grown relations.
func BenchmarkResidentRebuild(b *testing.B) {
	const tail = 1000
	q := defaultQuery(2000)
	rng := rand.New(rand.NewSource(29))
	if _, err := q.R1.AppendBatch(ingestTuples(rng, q.R1.D(), tail)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewResident(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerAlloc tracks allocations of the full grouping run —
// dominated by cell materialization and checker construction. The arena
// join and flat index orderings keep allocs/op independent of pair count.
func BenchmarkCheckerAlloc(b *testing.B) {
	q := defaultQuery(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(q, core.Grouping); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Columnar storage benchmarks (PR 4) -------------------------------
//
// The struct-of-arrays relation layout turns the engine's dense scans into
// contiguous stride-D float64 sweeps and its group lookups into integer
// symbol comparisons. These benchmarks pin the three layers that change:
// categorization (key-sorted runs over column views), the checker's
// domination probes (flat-column k-dominance tests), and the append path
// (column growth + key interning).

// BenchmarkColumnarCategorize measures the SS/SN/NN split of one relation:
// a global Two-Scan over the attribute column plus per-group scans located
// by interned key symbols — no string hashing, no per-row pointer chasing.
func BenchmarkColumnarCategorize(b *testing.B) {
	r := datagen.MustGenerate(datagen.Config{
		Name: "R", N: 5000, Local: 5, Agg: 2, Groups: 10, Dist: datagen.Independent, Seed: 2017,
	})
	// k′ = 6 matches the default workload: K=11 over d=7+5, k′1 = K − l2.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.Categorize(r, 6, join.Equality, core.Left)
		if len(c.SS)+len(c.SN)+len(c.NN) != r.Len() {
			b.Fatal("categorization lost tuples")
		}
	}
}

// BenchmarkColumnarChecker measures raw domination probes: each probe
// sweeps the checker's sum-sorted left column with the shared x-section
// prefix and strides the flat attribute blocks of both relations.
func BenchmarkColumnarChecker(b *testing.B) {
	q := defaultQuery(1000)
	vectors := make([][]float64, 64)
	rng := rand.New(rand.NewSource(11))
	for i := range vectors {
		v := make([]float64, q.Width())
		for j := range v {
			v[j] = rng.Float64()
		}
		vectors[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnyDominatorsContext(context.Background(), q, vectors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnarAppend measures the insert door: per-tuple validation
// (finite attributes), column growth, and join-key interning against a
// working set of 100 distinct keys.
func BenchmarkColumnarAppend(b *testing.B) {
	base := datagen.MustGenerate(datagen.Config{
		Name: "R", N: 100, Local: 5, Agg: 2, Groups: 100, Dist: datagen.Independent, Seed: 3,
	})
	tup := dataset.Tuple{Key: "g0042", Attrs: []float64{1, 2, 3, 4, 5, 6, 7}}
	b.ReportAllocs()
	b.ResetTimer()
	r := base.Clone()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			r = base.Clone() // bound the working set so growth stays realistic
		}
		if _, err := r.Append(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// preparedQuery is the repeated-same-pair workload of the prepared-query
// acceptance gate: the Table 7 default shape at n=2000.
func preparedQuery(b *testing.B) ksjq.Query {
	b.Helper()
	q := defaultQuery(2000)
	return ksjq.Query{R1: q.R1, R2: q.R2, Spec: q.Spec, K: q.K}
}

// BenchmarkPreparedCold is the baseline Prepared amortizes away: a full
// ksjq.Run — planner-free, resident-free — per repeated query.
func BenchmarkPreparedCold(b *testing.B) {
	q := preparedQuery(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ksjq.Run(ctx, q, ksjq.Options{Algorithm: ksjq.Grouping}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedRun is the repeated-same-pair path through Prepared:
// the first run computes, every later identical run is served from the
// prepared answer memo. The acceptance criterion is >=5x over
// BenchmarkPreparedCold at n>=2000; the memo makes the gap orders of
// magnitude.
func BenchmarkPreparedRun(b *testing.B) {
	q := preparedQuery(b)
	ctx := context.Background()
	p, err := ksjq.Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run(ctx, ksjq.Options{Algorithm: ksjq.Grouping}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, ksjq.Options{Algorithm: ksjq.Grouping}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedResident isolates the honest engine-rerun savings:
// NoCache skips the answer memo, so every iteration re-verifies over the
// prepared join index and probe orders instead of rebuilding them.
func BenchmarkPreparedResident(b *testing.B) {
	q := preparedQuery(b)
	ctx := context.Background()
	p, err := ksjq.Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, ksjq.Options{Algorithm: ksjq.Grouping, NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamFirstResult measures time-to-first-tuple through the
// stream iterator with an immediate break — the progressive-consumption
// latency a full run hides.
func BenchmarkStreamFirstResult(b *testing.B) {
	q := preparedQuery(b)
	ctx := context.Background()
	p, err := ksjq.Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, err := range p.Stream(ctx, ksjq.Options{}) {
			if err != nil {
				b.Fatal(err)
			}
			got++
			break
		}
		if got == 0 {
			b.Fatal("stream yielded nothing")
		}
	}
}

// BenchmarkStreamDrain measures a stream ranged to its end: every tuple of
// the Table 7 default shape at n=1000, k=11 (about 4 400 tuples on the arm
// Auto picks, the dominator-based one) through Prepared.Stream. It is the
// per-tuple hand-off cost BenchmarkStreamFirstResult never reaches.
func BenchmarkStreamDrain(b *testing.B) {
	dq := defaultQuery(1000)
	q := ksjq.Query{R1: dq.R1, R2: dq.R2, Spec: dq.Spec, K: dq.K}
	ctx := context.Background()
	p, err := ksjq.Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, err := range p.Stream(ctx, ksjq.Options{}) {
			if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got == 0 {
			b.Fatal("stream yielded nothing")
		}
	}
}

// BenchmarkWatchInsert measures one maintained insert fanned out to a
// standing watch subscription, delta delivery included.
func BenchmarkWatchInsert(b *testing.B) {
	q := defaultQuery(300)
	svc := service.New(service.Config{})
	b.Cleanup(func() { svc.Close() })
	if _, err := svc.Register("r1", q.R1); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Register("r2", q.R2); err != nil {
		b.Fatal(err)
	}
	w, err := svc.Watch(context.Background(), service.QueryRequest{R1: "r1", R2: "r2", K: q.K})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	<-w.Events() // snapshot
	rng := rand.New(rand.NewSource(2019))
	tuple := func() dataset.Tuple {
		attrs := make([]float64, 7)
		for i := range attrs {
			attrs[i] = rng.Float64() * 100
		}
		return dataset.Tuple{Key: fmt.Sprintf("g%d", rng.Intn(10)), Attrs: attrs}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Insert("r1", tuple()); err != nil {
			b.Fatal(err)
		}
		<-w.Events()
	}
}

// BenchmarkMaintainedDelete is the warm retract arm of the PR 8 delete
// path: a 16-row delete batch at n=2000 flowing through DeleteBatch into
// an answer the maintainer keeps current — one retract set, one eviction
// sweep over the members, one resurrection sweep over the non-members —
// followed by the cache hit the next query gets for free. The acceptance
// target is >=5x over BenchmarkDeleteRecompute (same mutation, cold
// answer; compare ns/op directly).
func BenchmarkMaintainedDelete(b *testing.B) { benchDelete(b, true) }

// BenchmarkDeleteRecompute is what maintenance replaces: the same 16-row
// delete against a service holding no cached answer, followed by the
// from-scratch recompute (resident rebuild included) the next query pays.
func BenchmarkDeleteRecompute(b *testing.B) { benchDelete(b, false) }

func benchDelete(b *testing.B, maintained bool) {
	const n, batch = 2000, 16
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh service per iteration (untimed), so every iteration
		// deletes from exactly the n=2000 workload.
		b.StopTimer()
		q := defaultQuery(n)
		q.K = 10 // see benchIngest: K=11 is this workload's blow-up point
		svc := service.New(service.Config{SweepInterval: -1})
		if _, err := svc.Register("r1", q.R1); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Register("r2", q.R2); err != nil {
			b.Fatal(err)
		}
		req := service.QueryRequest{R1: "r1", R2: "r2", K: q.K, Algorithm: "grouping"}
		if maintained {
			if _, err := svc.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
			// Promote the cached entry so the iteration measures
			// maintenance, not promotion.
			if _, err := svc.Insert("r1", ingestTuples(rng, q.R1.D(), 1)[0]); err != nil {
				b.Fatal(err)
			}
		}
		// Spread the batch across the relation: clustered prefix deletes
		// are the window sweeper's shape, measured separately below.
		ids := make([]int, batch)
		for j := range ids {
			ids[j] = j * (n / batch)
		}
		b.StartTimer()
		if _, err := svc.DeleteBatch("r1", ids); err != nil {
			b.Fatal(err)
		}
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		want := service.SourceComputed
		if maintained {
			want = service.SourceMaintained
		}
		if resp.Source != want {
			b.Fatalf("answer source %q, want %q", resp.Source, want)
		}
		svc.Close()
	}
}

// BenchmarkWindowSweep is the sweeper's shape of the same path: one
// Sweep call over a windowed n=2000 relation whose expired rows are a
// 16-row prefix — a binary-search cut plus the maintained retract of
// that prefix.
func BenchmarkWindowSweep(b *testing.B) {
	const n, expired = 2000, 16
	const window = 60 * time.Millisecond
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := defaultQuery(n)
		q.K = 10
		d := q.R1.D()
		svc := service.New(service.Config{SweepInterval: -1})
		// The rows that will expire are the registration seed; the bulk
		// of the relation arrives (fresh) after the window has passed
		// over the seed, so exactly the seed prefix is expired at sweep
		// time.
		old, err := dataset.New("R1", 5, 2, ingestTuples(rng, d, expired))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.RegisterWindow("r1", old, window); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Register("r2", q.R2); err != nil {
			b.Fatal(err)
		}
		time.Sleep(window + 15*time.Millisecond)
		if _, err := svc.InsertBatch("r1", ingestTuples(rng, d, n-expired)); err != nil {
			b.Fatal(err)
		}
		req := service.QueryRequest{R1: "r1", R2: "r2", K: q.K, Algorithm: "grouping"}
		if _, err := svc.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if got := svc.Sweep(); got != expired {
			b.Fatalf("sweep expired %d rows, want %d", got, expired)
		}
		b.StopTimer()
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Source != service.SourceMaintained {
			b.Fatalf("answer source %q, want %q", resp.Source, service.SourceMaintained)
		}
		svc.Close()
	}
}
