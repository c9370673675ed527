package core

import (
	"context"
	"fmt"

	"repro/internal/dom"
	"repro/internal/join"
)

// IsSkylineMember answers a point query: is the joined tuple
// R1[i] ⋈ R2[j] in the k-dominant skyline of q's join? It avoids computing
// the full answer — the pair is checked against its target sets only — so
// a single membership probe costs far less than Run. The pair must be
// join-compatible under q.Spec.
func IsSkylineMember(q Query, i, j int) (bool, error) {
	members, err := Membership(q, [][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return members[0], nil
}

// Membership tests many joined pairs without a deadline; see
// MembershipContext.
func Membership(q Query, pairs [][2]int) ([]bool, error) {
	return MembershipContext(context.Background(), q, pairs)
}

// MembershipContext tests many joined pairs at once, sharing one checker
// across probes. Each entry of pairs is a (R1 index, R2 index) pair; the
// result slice is parallel to it. The context is checked between probe
// batches, so a cancelled deadline aborts the scan with ctx.Err().
func MembershipContext(ctx context.Context, q Query, pairs [][2]int) ([]bool, error) {
	return membershipContext(ctx, q, pairs, nil)
}

// membershipContext is the shared implementation behind MembershipContext
// and Resident.Membership: res, when non-nil, seeds the probing engine
// with the prebuilt join index and probe order.
func membershipContext(ctx context.Context, q Query, pairs [][2]int, res *Resident) ([]bool, error) {
	if err := q.Validate(Grouping); err != nil {
		return nil, err
	}
	st := Stats{}
	e := newEngineResident(q, &st, res)
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i < 0 || i >= q.R1.Len() || j < 0 || j >= q.R2.Len() {
			return nil, fmt.Errorf("core: pair (%d,%d) out of range", i, j)
		}
		if e.cond != join.Cross && !e.cond.MatchesAt(q.R1, i, q.R2, j) {
			return nil, fmt.Errorf("core: pair (%d,%d) is not join-compatible under %v", i, j, e.cond)
		}
	}
	chk := e.newChecker(allIndices(q.R1.Len()), allIndices(q.R2.Len()))
	agg := q.aggregator()
	buf := make([]float64, 0, q.Width())
	out := make([]bool, len(pairs))
	for n, pr := range pairs {
		if n%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		buf = join.CombineAt(q.R1, q.R2, pr[0], pr[1], agg, buf)
		out[n] = !chk.dominates(buf)
	}
	return out, nil
}

// AnyDominators reports, for each joined attribute vector, whether some
// joined tuple of q's join k-dominates it, without a deadline; see
// AnyDominatorsContext.
func AnyDominators(q Query, vectors [][]float64) ([]bool, error) {
	return anyDominatorsContext(context.Background(), q, vectors, nil)
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
// AnyDominatorsContext and Resident.AnyDominators: res, when non-nil,
// seeds the checking engine with the prebuilt join index and probe
// order. A strictly monotonic aggregator gets the target-set checker;
// a non-strict one falls back to scanning the materialized join, where
// every joined vector is a potential dominator.
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
	st := Stats{}
	e := newEngineResident(q, &st, res)
	chk := e.newChecker(allIndices(q.R1.Len()), allIndices(q.R2.Len()))
	out := make([]bool, len(vectors))
	for i, v := range vectors {
		if i%cancelEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[i] = chk.dominates(v)
	}
	return out, nil
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
