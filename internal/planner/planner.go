// Package planner explains the evaluation algorithm "auto" picks for a KSJQ
// instance and estimates answer cardinalities by sampling — the
// query-optimizer layer a system shipping KSJQ would need. The paper leaves
// the algorithm choice to the user (its experiments sweep all three). The
// rule itself is core.ResolveAuto, which every surface runs through
// core.Exec; Choose wraps it with a reason. The estimator follows
// the spirit of the sampling-based cardinality work the paper cites
// (Hwang et al., SIAM J. Comput. 2013: threshold phenomena in k-dominant
// skylines of random samples); planning does not consult it.
package planner

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/core"
	"repro/internal/join"
)

// Estimate summarizes sampled statistics of one KSJQ instance. A plan's
// Estimate carries only the exact JoinedSize; its SampleSize is 0.
type Estimate struct {
	// JoinedSize is the exact size of R1 ⋈ R2 (cheap to count).
	JoinedSize int
	// SampleSize is the number of joined pairs probed.
	SampleSize int
	// SkylineFraction is the sampled probability that a joined tuple is a
	// k-dominant skyline member.
	SkylineFraction float64
	// Cardinality is SkylineFraction × JoinedSize, rounded.
	Cardinality int
}

// Options controls estimation; planning has no knobs.
type Options struct {
	// SampleSize bounds how many joined pairs EstimateCardinality probes
	// (default 200).
	SampleSize int
	// Seed makes EstimateCardinality's sampling reproducible (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SampleSize <= 0 {
		o.SampleSize = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ErrEmptyJoin is returned by EstimateCardinality when the two relations
// produce no joined pairs: there is nothing to sample.
var ErrEmptyJoin = errors.New("planner: join is empty")

// EstimateCardinality samples joined pairs uniformly and probes their
// skyline membership with core.MembershipContext. The estimator is
// unbiased for SkylineFraction; its variance shrinks as 1/SampleSize. A
// cancelled context aborts the membership probes with ctx.Err().
func EstimateCardinality(ctx context.Context, q core.Query, opts Options) (*Estimate, error) {
	opts = opts.withDefaults()
	if err := q.Validate(core.Grouping); err != nil {
		return nil, err
	}
	ix, prefix := rankSpace(q)
	total := prefix[len(prefix)-1]
	if total == 0 {
		return nil, ErrEmptyJoin
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	pairs := samplePairs(q, ix, prefix, opts)
	members, err := core.MembershipContext(ctx, q, pairs)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, m := range members {
		if m {
			hits++
		}
	}
	frac := float64(hits) / float64(len(pairs))
	return &Estimate{
		JoinedSize:      total,
		SampleSize:      len(pairs),
		SkylineFraction: frac,
		Cardinality:     int(frac*float64(total) + 0.5),
	}, nil
}

// rankSpace lays the join's rank space out over a join index of R2: for
// each R1 tuple i, its partners occupy the contiguous rank range
// [prefix[i], prefix[i+1]), whose width is the partner-range size.
// Building the prefix sums costs O(n₁ log n₂) — no per-tuple partner
// materialization and no O(n₁·n₂) scan — and prefix[n₁] is the exact
// join size, so one pass serves both counting and sampling.
func rankSpace(q core.Query) (*join.Index, []int) {
	ix := join.NewFullIndex(q.R1, q.R2, q.Spec.Cond)
	prefix := make([]int, q.R1.Len()+1)
	for i := 0; i < q.R1.Len(); i++ {
		prefix[i+1] = prefix[i] + len(ix.Partners(q.R1, i))
	}
	return ix, prefix
}

// samplePairs draws min(SampleSize, join size) joined pairs uniformly at
// random, without replacement. Decoding a sampled rank is one binary
// search on the prefix array plus one indexed partner lookup.
func samplePairs(q core.Query, ix *join.Index, prefix []int, opts Options) [][2]int {
	rng := rand.New(rand.NewPCG(uint64(opts.Seed), 0x9e3779b97f4a7c15))
	total := prefix[len(prefix)-1]
	m := opts.SampleSize
	if m > total {
		m = total
	}
	out := make([][2]int, 0, m)
	for _, r := range sampleRanks(rng, total, m) {
		i := sort.SearchInts(prefix, r+1) - 1
		out = append(out, [2]int{i, int(ix.Partners(q.R1, i)[r-prefix[i]])})
	}
	return out
}

// sampleRanks draws m distinct ranks uniformly from [0, total) with a
// partial Fisher–Yates shuffle: only the m swaps that matter are
// performed, with displaced values tracked in a sparse map, so the cost is
// O(m) time and space instead of the O(total) of materializing a full
// permutation (total is the join size, which can be quadratic).
func sampleRanks(rng *rand.Rand, total, m int) []int {
	ranks := make([]int, m)
	displaced := make(map[int]int, m)
	for t := 0; t < m; t++ {
		j := t + rng.IntN(total-t)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vt, ok := displaced[t]
		if !ok {
			vt = t
		}
		ranks[t] = vj
		displaced[j] = vt
	}
	return ranks
}

// Plan is the planner's decision with its rationale.
type Plan struct {
	Algorithm core.Algorithm
	Estimate  *Estimate
	Reason    string
}

// Choose reports the algorithm "auto" runs (core.ResolveAuto, whatever
// the execution options) with the reason: naive under a non-strict
// aggregator or for a join of at most core.AutoNaiveCap pairs (an empty
// join included), the dominator-based algorithm otherwise. It samples nothing;
// the plan's Estimate carries only the exact join size, and is nil when
// the rule did not count the join. opts is unused.
func Choose(ctx context.Context, q core.Query, _ Options) (*Plan, error) {
	if err := q.Validate(core.Auto); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alg, joined := core.ResolveAuto(q, core.ExecOptions{Algorithm: core.Auto})
	plan := &Plan{Algorithm: alg, Estimate: &Estimate{JoinedSize: joined}}
	switch {
	case joined < 0:
		plan.Estimate = nil
		plan.Reason = fmt.Sprintf("aggregator %q is not strictly monotonic: only join-then-compute is exact", q.Spec.Agg.Name)
	case alg == core.Naive:
		plan.Reason = fmt.Sprintf("joined size %d <= cap %d: join-then-compute is cheapest", joined, core.AutoNaiveCap)
	default:
		plan.Reason = fmt.Sprintf("joined size %d > cap %d: each candidate is checked against its target-set join only", joined, core.AutoNaiveCap)
	}
	return plan, nil
}

// Run plans and executes in one call, on the unified execution path.
func Run(ctx context.Context, q core.Query, opts Options) (*core.Result, *Plan, error) {
	plan, err := Choose(ctx, q, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Exec(ctx, q, core.ExecOptions{Algorithm: plan.Algorithm})
	if err != nil {
		return nil, nil, err
	}
	return res, plan, nil
}
