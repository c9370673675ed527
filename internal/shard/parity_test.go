package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/join"
	"repro/internal/service"
	"repro/ksjq"
)

// TestAutoSurfaceParity runs "auto" through every surface that answers a
// query — ksjq.Run, ksjq.Stream, Prepared.Run, Service.Query, the gateway
// over in-process shards and distributed.Run — over {sum, max} × {empty
// join, join ≤ core.AutoNaiveCap, join > core.AutoNaiveCap} × {workers 0,
// 2}; the empty join comes twice, once with no shard holding both sides. Every cell must answer without error, byte-identically to the
// explicit arm the rule names, and every surface that reports an arm must
// report that one. Auto is resolved per node, so the large join's groups
// are each over the cap: every shard's partition then sits on the same
// side of it as the whole join.
func TestAutoSurfaceParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	ctx := context.Background()
	const local, agg, k = 2, 1, 5
	rng := rand.New(rand.NewSource(35))
	// rows builds n tuples spread round-robin over the named join keys.
	rows := func(n int, keys ...string) []dataset.Tuple {
		ts := make([]dataset.Tuple, n)
		for i := range ts {
			attrs := make([]float64, local+agg)
			for j := range attrs {
				attrs[j] = math.Round(rng.Float64()*1000) / 10
			}
			ts[i] = dataset.Tuple{Key: keys[i%len(keys)], Attrs: attrs}
		}
		return ts
	}
	// groupJoins returns the smallest and the total per-key join size.
	groupJoins := func(t1, t2 []dataset.Tuple) (smallest, total int) {
		n2 := map[string]int{}
		for _, tp := range t2 {
			n2[tp.Key]++
		}
		n1 := map[string]int{}
		for _, tp := range t1 {
			n1[tp.Key]++
		}
		smallest = math.MaxInt
		for key, n := range n1 {
			smallest = min(smallest, n*n2[key])
			total += n * n2[key]
		}
		return smallest, total
	}
	// keysOn returns n join keys the cluster places on the given shard.
	keysOn := func(shard, n int) []string {
		var keys []string
		for i := 0; len(keys) < n; i++ {
			if key := fmt.Sprintf("s%d-%d", shard, i); distributed.NodeOf(key, 2) == shard {
				keys = append(keys, key)
			}
		}
		return keys
	}
	joins := []struct {
		name    string
		t1, t2  []dataset.Tuple
		overCap bool
	}{
		{name: "empty", t1: rows(30, "a0", "a1", "a2"), t2: rows(30, "b0", "b1", "b2")},
		// No shard holds both sides, so no shard runs round 1.
		{name: "empty-apart", t1: rows(30, keysOn(0, 3)...), t2: rows(30, keysOn(1, 3)...)},
		{name: "small", t1: rows(40, "g0", "g1", "g2", "g3"), t2: rows(40, "g0", "g1", "g2", "g3")},
		{name: "large", t1: rows(138, "g0", "g1", "g2"), t2: rows(138, "g0", "g1", "g2"), overCap: true},
	}

	c := newCluster(t, 2)
	if len(c.svcs) != 2 {
		t.Fatal("keysOn places keys for two shards")
	}
	mirror := newMirror(t)
	for _, jn := range joins {
		r1, r2 := jn.name+"1", jn.name+"2"
		smallest, size := groupJoins(jn.t1, jn.t2)
		if strings.HasPrefix(jn.name, "empty") != (size == 0) || (size > core.AutoNaiveCap) != jn.overCap || (jn.overCap && smallest <= core.AutoNaiveCap) {
			t.Fatalf("%s join has %d pairs, smallest group %d: not the shape the case names", jn.name, size, smallest)
		}
		registerBoth(t, c, mirror, r1, local, agg, jn.t1)
		registerBoth(t, c, mirror, r2, local, agg, jn.t2)
		for _, aggName := range []string{"sum", "max"} {
			jagg, err := join.ParseAggregator(aggName)
			if err != nil {
				t.Fatal(err)
			}
			q := core.Query{
				R1: mustRelation(t, r1, local, agg, jn.t1), R2: mustRelation(t, r2, local, agg, jn.t2),
				Spec: join.Spec{Cond: join.Equality, Agg: jagg}, K: k,
			}
			for _, workers := range []int{0, 2} {
				want := core.Naive
				switch {
				case aggName == "max":
				case jn.overCap:
					want = core.DominatorBased
				}
				label := fmt.Sprintf("%s/%s/workers=%d", jn.name, aggName, workers)
				oracle, err := core.Run(q, want)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				t.Logf("%s: join %d, skyline %d, arm %s", label, size, len(oracle.Skyline), want.Token())
				check := func(surface string, err error, sky func() []join.Pair, arm func() string) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %s: %v", label, surface, err)
					}
					samePairs(t, label+" "+surface, sky(), oracle.Skyline)
					if arm != nil && arm() != want.Token() {
						t.Errorf("%s: %s reports %q, want %q", label, surface, arm(), want.Token())
					}
				}

				opts := ksjq.Options{Workers: workers}
				res, err := ksjq.Run(ctx, q, opts)
				check("ksjq.Run", err, func() []join.Pair { return res.Skyline }, func() string { return res.Algorithm.Token() })

				var streamed []join.Pair
				err = nil
				for p, perr := range ksjq.Stream(ctx, q, opts) {
					if err = perr; err != nil {
						break
					}
					streamed = append(streamed, p)
				}
				join.SortPairs(streamed)
				check("ksjq.Stream", err, func() []join.Pair { return streamed }, nil)

				prep, err := ksjq.Prepare(ctx, q)
				if err != nil {
					t.Fatalf("%s: Prepare: %v", label, err)
				}
				opts.NoCache = true
				pres, err := prep.Run(ctx, opts)
				check("Prepared.Run", err, func() []join.Pair { return pres.Skyline }, func() string { return pres.Algorithm.Token() })

				req := service.QueryRequest{R1: r1, R2: r2, K: k, Agg: aggName, Workers: workers, NoCache: true}
				sresp, err := mirror.Query(ctx, req)
				check("Service.Query", err, func() []join.Pair { return sresp.Skyline }, func() string { return sresp.Algorithm })
				gresp, err := c.gw.Query(ctx, req)
				check("gateway", err, func() []join.Pair { return gresp.Skyline }, func() string { return gresp.Algorithm })
				sim, err := distributed.Run(q, len(c.svcs))
				check("distributed.Run", err, func() []join.Pair { return sim.Skyline }, nil)
			}
		}
	}
}
