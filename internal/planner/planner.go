// Package planner explains the evaluation algorithm "auto" picks for a KSJQ
// instance. The paper leaves the algorithm choice to the user (its
// experiments sweep all three). The rule itself is core.ResolveAuto, which
// every surface runs through core.Exec and reports in Result.Algorithm;
// Choose wraps it with a reason.
//
// The package lives on only because the benchmark harness (bench/twins.go)
// times planner.Choose; it goes once ROADMAP item 9(v) removes that import.
package planner

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Options is empty: planning has no knobs. It is kept so existing callers
// of Choose compile unchanged.
type Options struct{}

// Plan is the planner's decision with its rationale.
type Plan struct {
	Algorithm core.Algorithm
	// JoinedSize is the exact size of R1 ⋈ R2 the rule counted, or -1 when
	// it decided without counting (a non-strict aggregator).
	JoinedSize int
	Reason     string
}

// Choose reports the algorithm "auto" runs (core.ResolveAuto, whatever
// the execution options) with the reason: naive under a non-strict
// aggregator or for a join of at most core.AutoNaiveCap pairs (an empty
// join included), the dominator-based algorithm otherwise.
func Choose(ctx context.Context, q core.Query, _ Options) (*Plan, error) {
	if err := q.Validate(core.Auto); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alg, joined := core.ResolveAuto(q, core.ExecOptions{Algorithm: core.Auto})
	plan := &Plan{Algorithm: alg, JoinedSize: joined}
	switch {
	case joined < 0:
		plan.Reason = fmt.Sprintf("aggregator %q is not strictly monotonic: only join-then-compute is exact", q.Spec.Agg.Name)
	case alg == core.Naive:
		plan.Reason = fmt.Sprintf("joined size %d <= cap %d: join-then-compute is cheapest", joined, core.AutoNaiveCap)
	default:
		plan.Reason = fmt.Sprintf("joined size %d > cap %d: each candidate is checked against its target-set join only", joined, core.AutoNaiveCap)
	}
	return plan, nil
}
