package core

import (
	"context"
	"fmt"

	"repro/internal/dom"
	"repro/internal/join"
)

// MembershipContext answers point queries: is each joined tuple
// R1[i] ⋈ R2[j] in the k-dominant skyline of q's join? It avoids computing
// the full answer — each pair is checked against its target sets only — so
// a membership probe costs far less than Run. Each entry of pairs is a
// (R1 index, R2 index) pair that must be join-compatible under q.Spec; the
// result slice is parallel to it. A membership is the negated vote of the
// pair's joined vector (AnyDominatorsContext), so it accepts what the vote
// accepts, a non-strict aggregator included. The context is polled between
// probes, so a cancelled deadline aborts them with ctx.Err().
func MembershipContext(ctx context.Context, q Query, pairs [][2]int) ([]bool, error) {
	return membershipContext(ctx, q, pairs, nil)
}

// membershipContext is the shared implementation behind MembershipContext
// and Resident.Membership: it combines each pair's joined vector and
// negates the vote on it.
func membershipContext(ctx context.Context, q Query, pairs [][2]int, res *Resident) ([]bool, error) {
	if err := q.Validate(Auto); err != nil {
		return nil, err
	}
	w, agg := q.Width(), q.aggregator()
	flat := make([]float64, len(pairs)*w)
	vectors := make([][]float64, len(pairs))
	for n, pr := range pairs {
		i, j := pr[0], pr[1]
		if i < 0 || i >= q.R1.Len() || j < 0 || j >= q.R2.Len() {
			return nil, fmt.Errorf("core: pair (%d,%d) out of range", i, j)
		}
		if cond := q.Spec.Cond; cond != join.Cross && !cond.MatchesAt(q.R1, i, q.R2, j) {
			return nil, fmt.Errorf("core: pair (%d,%d) is not join-compatible under %v", i, j, cond)
		}
		vectors[n] = join.CombineAt(q.R1, q.R2, i, j, agg, flat[n*w:n*w:(n+1)*w])
	}
	members, err := anyDominatorsContext(ctx, q, vectors, res)
	if err != nil {
		return nil, err
	}
	for n := range members {
		members[n] = !members[n]
	}
	return members, nil
}

// AnyDominatorsContext reports, for each joined attribute vector, whether
// some joined tuple of q's join k-dominates it. The vectors need not
// originate from q's relations — this is the primitive a distributed
// verifier uses to check foreign candidates against its local partition.
// Every vector must have q.Width() attributes. The context is polled
// between verification batches, so a cancelled deadline aborts the scan
// with ctx.Err().
func AnyDominatorsContext(ctx context.Context, q Query, vectors [][]float64) ([]bool, error) {
	return anyDominatorsContext(ctx, q, vectors, nil)
}

// anyDominatorsContext is the shared implementation behind
// AnyDominatorsContext, MembershipContext and their Resident forms: res,
// when non-nil, supplies the sum-sorted R1 order the target sets scan.
// A strictly monotonic aggregator checks each vector against its target
// sets τ(u) ⋈ τ(v) (see votes); a non-strict one falls back to scanning
// the materialized join, where every joined vector is a potential
// dominator.
func anyDominatorsContext(ctx context.Context, q Query, vectors [][]float64, res *Resident) ([]bool, error) {
	if err := q.Validate(Auto); err != nil {
		return nil, err
	}
	for i, v := range vectors {
		if len(v) != q.Width() {
			return nil, fmt.Errorf("core: vector %d has %d attributes, joined width is %d", i, len(v), q.Width())
		}
	}
	if !q.Strict() {
		return anyDominatorsScan(ctx, q, vectors)
	}
	return newEngineResident(q, &Stats{}, res).votes(ctx, vectors)
}

// votes is the strict arm: each vector is one candidate of the cell loop's
// verification (verifyCell) against its target sets, carrying its position
// in Left, and reads dominated unless the loop emits it.
func (e *engine) votes(ctx context.Context, vectors [][]float64) ([]bool, error) {
	candidates := make([]join.Pair, len(vectors))
	dominated := make([]bool, len(vectors))
	for i, v := range vectors {
		candidates[i] = join.Pair{Left: i, Attrs: v}
		dominated[i] = true
	}
	free := func(p join.Pair) bool { dominated[p.Left] = false; return true }
	// The sets read what the resident holds but publish nothing: the
	// vectors come from outside the relations (a client's /v1/verify, a
	// peer shard's candidates), so sets keyed by them would let outside
	// input grow the table without bound until the next write.
	ts := newTargetSets(e)
	if _, err := verifyCell(ctx, e, candidates, ts.of, free); err != nil {
		return nil, err
	}
	return dominated, nil
}

// anyDominatorsScan is the non-strict arm: target-set pruning relies on
// strict monotonicity, so the full join is materialized and each vector is
// tested against every joined tuple, with an early exit once all vectors
// have found a dominator.
func anyDominatorsScan(ctx context.Context, q Query, vectors [][]float64) ([]bool, error) {
	pairs, err := join.Pairs(q.R1, q.R2, q.Spec)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(vectors))
	remaining := len(vectors)
	for n := range pairs {
		if n%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		a := pairs[n].Attrs
		for i, v := range vectors {
			if !out[i] && dom.KDominates(a, v, q.K) {
				out[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
	}
	return out, nil
}
