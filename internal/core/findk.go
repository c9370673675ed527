package core

import (
	"context"
	"fmt"
	"time"
)

// FindKAlgorithm selects the strategy for Problems 3 and 4.
type FindKAlgorithm int

const (
	// FindKNaive iterates k upward, computing the full skyline each time
	// (Algo 4).
	FindKNaive FindKAlgorithm = iota
	// FindKRange iterates k upward but skips full computation whenever the
	// Δ lower/upper bounds decide the step (Algo 5).
	FindKRange
	// FindKBinary binary-searches k using the same bounds (Algo 6). The
	// paper's pseudocode terminates with `while l < h`, which can skip the
	// final untested value; this implementation uses the standard
	// inclusive bound so the returned k is exactly the smallest
	// satisfying value.
	FindKBinary
)

// FindKAlgorithms lists the strategies in the paper's figure order.
var FindKAlgorithms = []FindKAlgorithm{FindKBinary, FindKRange, FindKNaive}

// String returns the one-letter label used in the paper's figures.
func (a FindKAlgorithm) String() string {
	switch a {
	case FindKNaive:
		return "N"
	case FindKRange:
		return "R"
	case FindKBinary:
		return "B"
	default:
		return fmt.Sprintf("FindKAlgorithm(%d)", int(a))
	}
}

// FindKStats aggregates the work across all probed k values, using the same
// phase split as the paper's find-k figures (grouping / join / remaining).
type FindKStats struct {
	GroupingTime  time.Duration
	JoinTime      time.Duration
	RemainingTime time.Duration
	Total         time.Duration
	// Probed lists the k values examined, in order.
	Probed []int
	// SkylinesComputed counts how often the full skyline had to be
	// materialized (the expensive step the bounds try to avoid).
	SkylinesComputed int
}

// FindKResult is the answer to Problem 3 or 4.
type FindKResult struct {
	// K is the selected number of skyline attributes.
	K     int
	Stats FindKStats
}

// FindK solves Problem 3 without a deadline; see FindKContext.
func FindK(q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return FindKContext(context.Background(), q, delta, alg)
}

// FindKContext solves Problem 3: the smallest k in (max{d1,d2}, l1+l2+a]
// whose k-dominant skyline join has at least delta tuples. If no k
// satisfies the threshold, the maximum possible k is returned (the paper's
// default). The context flows into every skyline computation, so a
// cancelled deadline aborts mid-probe with ctx.Err().
func FindKContext(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return findKContext(ctx, q, delta, alg, nil)
}

// findKContext is the shared implementation behind FindKContext and
// Resident.FindK: res, when non-nil, seeds every probe's engine with the
// prebuilt join index and probe orders.
func findKContext(ctx context.Context, q Query, delta int, alg FindKAlgorithm, res *Resident) (*FindKResult, error) {
	if q.R1 == nil || q.R2 == nil {
		return nil, fmt.Errorf("core: nil relation")
	}
	probe := q
	probe.K = probe.KMin()
	if err := probe.Validate(Grouping); err != nil {
		return nil, err
	}
	if delta < 0 {
		return nil, fmt.Errorf("core: negative delta %d", delta)
	}
	start := time.Now()
	var out *FindKResult
	var err error
	switch alg {
	case FindKNaive:
		out, err = findKNaive(ctx, q, delta, res)
	case FindKRange:
		out, err = findKRange(ctx, q, delta, res)
	case FindKBinary:
		out, err = findKBinary(ctx, q, delta, res)
	default:
		return nil, fmt.Errorf("%w: find-k %d", ErrUnknownAlgorithm, int(alg))
	}
	if err != nil {
		return nil, err
	}
	out.Stats.Total = time.Since(start)
	return out, nil
}

// prober evaluates skyline cardinalities and bounds for one query template,
// accumulating stats across probes.
type prober struct {
	ctx context.Context
	q   Query
	st  *FindKStats
	// res optionally seeds every probe with prebuilt resident structures
	// and its per-k table, so one snapshot serves the whole search and a
	// bound and a count at the same k categorize once; nil means each
	// probe builds its own.
	res *Resident
}

func newProber(ctx context.Context, q Query, st *FindKStats, res *Resident) *prober {
	if ctx == nil {
		ctx = context.Background()
	}
	return &prober{ctx: ctx, q: q, st: st, res: res}
}

// bounds returns Δ_lb and Δ_ub for the given k without computing any
// skyline: Δ_lb is the size of the "yes" cell (valid whenever a ≤ 1; with
// a ≥ 2 the cell is not guaranteed, so the lower bound degrades to 0) and
// Δ_ub adds the "likely" and "may be" cells. NN cells never contribute
// (Th. 4), so Δ_ub is always valid.
func (p *prober) bounds(k int) (lb, ub int, err error) {
	if err := p.ctx.Err(); err != nil {
		return 0, 0, err
	}
	q := p.q
	q.K = k
	st := Stats{}
	e := newEngineResident(q, &st, p.res)
	t0 := time.Now()
	ts := newTargetSets(e)
	c1, c2 := ts.categorization(Left), ts.categorization(Right)
	ts.publish()
	p.st.GroupingTime += time.Since(t0)

	t0 = time.Now()
	yes := e.countPairs(c1.SS, c2.SS)
	ub = yes +
		e.countPairs(c1.SS, c2.SN) +
		e.countPairs(c1.SN, c2.SS) +
		e.countPairs(c1.SN, c2.SN)
	p.st.JoinTime += time.Since(t0)
	if q.R1.Agg >= 2 {
		return 0, ub, nil
	}
	return yes, ub, nil
}

// count computes the exact k-dominant skyline size with the grouping
// algorithm (the paper's fastest evaluator) on the unified execution path.
func (p *prober) count(k int) (int, error) {
	q := p.q
	q.K = k
	res, err := Exec(p.ctx, q, ExecOptions{Algorithm: Grouping, Resident: p.res})
	if err != nil {
		return 0, err
	}
	p.st.SkylinesComputed++
	p.st.GroupingTime += res.Stats.GroupingTime
	p.st.JoinTime += res.Stats.JoinTime
	p.st.RemainingTime += res.Stats.RemainingTime + res.Stats.DominatorTime
	return len(res.Skyline), nil
}

func (p *prober) probed(k int) { p.st.Probed = append(p.st.Probed, k) }

func findKNaive(ctx context.Context, q Query, delta int, resident *Resident) (*FindKResult, error) {
	res := &FindKResult{}
	p := newProber(ctx, q, &res.Stats, resident)
	kMin, kMax := q.KMin(), q.Width()
	for k := kMin; k < kMax; k++ {
		p.probed(k)
		n, err := p.count(k)
		if err != nil {
			return nil, err
		}
		if n >= delta {
			res.K = k
			return res, nil
		}
	}
	res.K = kMax
	return res, nil
}

func findKRange(ctx context.Context, q Query, delta int, resident *Resident) (*FindKResult, error) {
	res := &FindKResult{}
	p := newProber(ctx, q, &res.Stats, resident)
	kMin, kMax := q.KMin(), q.Width()
	for k := kMin; k < kMax; k++ {
		p.probed(k)
		lb, ub, err := p.bounds(k)
		if err != nil {
			return nil, err
		}
		switch {
		case lb >= delta:
			res.K = k
			return res, nil
		case ub < delta:
			// k cannot satisfy delta; advance without computing.
		default:
			n, err := p.count(k)
			if err != nil {
				return nil, err
			}
			if n >= delta {
				res.K = k
				return res, nil
			}
		}
	}
	res.K = kMax
	return res, nil
}

func findKBinary(ctx context.Context, q Query, delta int, resident *Resident) (*FindKResult, error) {
	res := &FindKResult{}
	p := newProber(ctx, q, &res.Stats, resident)
	kMin, kMax := q.KMin(), q.Width()
	lo, hi, cur := kMin, kMax, kMax
	for lo <= hi {
		k := (lo + hi) / 2
		p.probed(k)
		lb, ub, err := p.bounds(k)
		if err != nil {
			return nil, err
		}
		var satisfied bool
		switch {
		case lb >= delta:
			satisfied = true
		case ub < delta:
			satisfied = false
		default:
			n, err := p.count(k)
			if err != nil {
				return nil, err
			}
			satisfied = n >= delta
		}
		if satisfied {
			cur = k
			hi = k - 1
		} else {
			lo = k + 1
		}
	}
	res.K = cur
	return res, nil
}

// FindKAtMost solves Problem 4 without a deadline; see FindKAtMostContext.
func FindKAtMost(q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return FindKAtMostContext(context.Background(), q, delta, alg)
}

// FindKAtMostContext solves Problem 4: the largest k whose skyline has at
// most delta tuples. Per the paper's analysis it is derived from Problem 3:
// if k⁺ is the smallest k with more than delta skylines, the answer is
// k⁺ − 1; if even the minimum k exceeds delta, the minimum k is returned
// (the paper's trivial corner case), and if no k exceeds delta the maximum
// k is the answer.
func FindKAtMostContext(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return findKAtMostContext(ctx, q, delta, alg, nil)
}

// findKAtMostContext is the shared implementation behind FindKAtMostContext
// and Resident.FindKAtMost.
func findKAtMostContext(ctx context.Context, q Query, delta int, alg FindKAlgorithm, resident *Resident) (*FindKResult, error) {
	res, err := findKContext(ctx, q, delta+1, alg, resident)
	if err != nil {
		return nil, err
	}
	kMin, kMax := q.KMin(), q.Width()
	if res.K == kMax {
		// Either kMax is the first k exceeding delta, or none does. Only a
		// real count distinguishes the two.
		p := newProber(ctx, q, &res.Stats, resident)
		n, err := p.count(kMax)
		if err != nil {
			return nil, err
		}
		if n <= delta {
			return res, nil
		}
	}
	if res.K > kMin {
		res.K--
	}
	return res, nil
}
