// Benchmarks for the sharded deployment (PR 9): a real 4-shard
// in-process cluster — shard services behind actual HTTP servers, the
// gateway scatter-gathering over TCP — against one single-node service
// on the same data. Three arms:
//
//   - single-node: the baseline cold recompute (NoCache).
//   - gateway/cold: the same query through the cluster, recomputed on
//     every shard each iteration. On a multi-core host round 1 runs the
//     shard-local joins in parallel processes, so this should beat the
//     baseline; on a 1-CPU container the arms time alike and the
//     reported r1_imbalance metric (max/mean per-shard round-1
//     candidates) is the evidence that the work partitions evenly —
//     the parallel speedup a multi-core deployment would realize.
//   - gateway/warm: the repeated query, answered from the shards'
//     answer caches — two fan-out round trips, no recompute.
//   - gateway-cold-large: a cold query over a 2-shard cluster whose answer
//     has thousands of candidates (12 attributes, k=11), so the wire —
//     round 1's candidates and round 2's verify batches — shows in the
//     time, B/op and allocs/op.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/shard"
)

func shardBenchTuples(rng *rand.Rand, n, local, agg, groups int) []dataset.Tuple {
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		attrs := make([]float64, local+agg)
		for j := range attrs {
			attrs[j] = rng.Float64() * 100
		}
		ts[i] = dataset.Tuple{Key: fmt.Sprintf("g%d", rng.Intn(groups)), Attrs: attrs}
	}
	return ts
}

func BenchmarkShardedQuery(b *testing.B) {
	const local, agg, groups, n, shards = 3, 1, 32, 32000, 4
	rng := rand.New(rand.NewSource(9))
	t1 := shardBenchTuples(rng, n, local, agg, groups)
	t2 := shardBenchTuples(rng, n, local, agg, groups)
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 6, Agg: "sum", NoCache: true}
	ctx := context.Background()

	single := service.New(service.Config{SweepInterval: -1})
	defer single.Close()
	for name, ts := range map[string][]dataset.Tuple{"r1": t1, "r2": t2} {
		rel, err := dataset.New(name, local, agg, ts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := single.Register(name, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("single-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := single.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	gw := benchCluster(b, shards, local, agg, t1, t2)
	b.Run("gateway-cold", func(b *testing.B) {
		imbalance := 0.0
		for i := 0; i < b.N; i++ {
			resp, err := gw.Query(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			// max/mean per-shard round-1 elapsed: 1.0 is a perfect work
			// partition; the closer to 1, the closer a multi-core
			// deployment gets to the ideal 1/shards round-1 wall clock.
			var maxT, sum float64
			for _, d := range resp.R1Elapsed {
				maxT = math.Max(maxT, float64(d))
				sum += float64(d)
			}
			if sum > 0 {
				imbalance += maxT * float64(shards) / sum
			}
		}
		b.ReportMetric(math.Round(imbalance/float64(b.N)*100)/100, "r1_imbalance")
	})

	warmReq := req
	warmReq.NoCache = false
	if _, err := gw.Query(ctx, warmReq); err != nil {
		b.Fatal(err)
	}
	b.Run("gateway-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := gw.Query(ctx, warmReq)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Source == service.SourceComputed {
				b.Fatal("warm arm recomputed")
			}
		}
	})

	const wideLocal, wideAgg, wideGroups, wideN = 5, 2, 16, 2000
	large := benchCluster(b, 2, wideLocal, wideAgg,
		shardBenchTuples(rng, wideN, wideLocal, wideAgg, wideGroups),
		shardBenchTuples(rng, wideN, wideLocal, wideAgg, wideGroups))
	largeReq := service.QueryRequest{R1: "r1", R2: "r2", K: 11, Agg: "sum", NoCache: true}
	b.Run("gateway-cold-large", func(b *testing.B) {
		b.ReportAllocs()
		candidates := 0
		for i := 0; i < b.N; i++ {
			resp, err := large.Query(ctx, largeReq)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range resp.Dist.CandidatesPerNode {
				candidates += c
			}
		}
		b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
	})
}

// benchCluster starts a gateway over n in-process shard services behind
// real HTTP servers and registers t1 and t2 through it as r1 and r2.
func benchCluster(b *testing.B, n, local, agg int, t1, t2 []dataset.Tuple) *shard.Gateway {
	ctx := context.Background()
	var urls []string
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{SweepInterval: -1})
		b.Cleanup(func() { svc.Close() })
		srv := httptest.NewServer(httpapi.NewHandler(svc, 0))
		b.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	gw, err := shard.New(ctx, urls, shard.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gw.Close() })
	if _, err := gw.Register(ctx, "r1", local, agg, t1); err != nil {
		b.Fatal(err)
	}
	if _, err := gw.Register(ctx, "r2", local, agg, t2); err != nil {
		b.Fatal(err)
	}
	return gw
}
