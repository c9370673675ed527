package ksjq

import (
	"context"
	"iter"
	"sync"

	"repro/internal/core"
)

// Prepared is a query with its expensive, reusable state built once and
// owned by the caller: the full-R2 join index and the probe orders (the
// engine's resident snapshot, aggregator-independent, so one Prepared
// serves every dominance level over its relation pair and join
// condition), the categorization and target sets runs at each k build
// (held per k, so later runs at that k — NoCache included — skip them),
// plus a per-k answer memo so repeating an identical query
// is O(1) after the first run. This is the
// library-level form of the amortization the query service gets from its
// resident and answer caches: Run pays the build on every call, Prepared
// pays it once.
//
//	p, err := ksjq.Prepare(ctx, q)
//	res, err := p.Run(ctx, ksjq.Options{})            // builds nothing
//	res, err = p.Run(ctx, ksjq.Options{K: q.K - 1})   // same snapshot, new k
//	for pair, err := range p.Stream(ctx, ksjq.Options{}) { ... }
//
// A Prepared is a snapshot: it serves queries only while its relations
// keep the rows they had at Prepare time (same length, same mutation
// generation). After any mutation every method returns ErrStaleResident; Rebind rebuilds against the current state —
// the handshake the maintained-insert flow uses. All methods are safe for
// concurrent use.
type Prepared struct {
	q Query

	mu   sync.Mutex
	res  *core.Resident
	memo map[int]*Result // per-k full answers; see Run
}

// Prepare builds the resident snapshot for q's relation pair and join
// condition and returns a Prepared that owns it. The query's K is the
// default for Run/Stream (overridable per call via Options.K) and is not
// validated here — the snapshot is built for every k, and Prepare
// accepts a query whose K is still unset.
func Prepare(ctx context.Context, q Query) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.NewResident(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Prepared{q: q, res: res, memo: make(map[int]*Result)}, nil
}

// Query returns the prepared query (with its default K).
func (p *Prepared) Query() Query { return p.q }

// Stale reports whether the snapshot no longer matches the relations
// (they were mutated since Prepare/Rebind). A stale Prepared returns
// ErrStaleResident from every evaluating method until Rebind.
func (p *Prepared) Stale() bool { return p.resident().Check(p.q) != nil }

// Rebind rebuilds the snapshot against the relations' current state and
// clears the answer memo — the recovery path after ErrStaleResident, and
// the handshake for workloads that mutate relations through a Maintainer
// (or any other external writer) between queries.
func (p *Prepared) Rebind(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	res, err := core.NewResident(p.q)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.res = res
	p.memo = make(map[int]*Result)
	p.mu.Unlock()
	return nil
}

func (p *Prepared) resident() *core.Resident {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.res
}

// Run evaluates the prepared query over the resident snapshot, reusing
// the join index and probe orders a cold Run rebuilds every call.
// Options work as in Run, plus: Options.K (> 0) overrides the prepared
// query's K, and repeated full runs (no Limit) at the same k are
// answered from a per-k memo — byte-identical to the original Result,
// which callers must treat as read-only; Options.NoCache neither reads
// nor writes the memo. Algorithm and Workers are deliberately not part of
// the memo identity: every strategy computes the same skyline.
func (p *Prepared) Run(ctx context.Context, opts Options) (*Result, error) {
	q := p.q
	if opts.K > 0 {
		q.K = opts.K
	}
	res := p.resident()
	if err := res.Check(q); err != nil {
		return nil, err
	}
	memoable := opts.Limit == 0
	if memoable && !opts.NoCache {
		p.mu.Lock()
		hit, ok := p.memo[q.K]
		p.mu.Unlock()
		if ok {
			return hit, nil
		}
	}
	out, err := run(ctx, q, opts, res)
	if err != nil {
		return nil, err
	}
	if memoable && !opts.NoCache {
		p.mu.Lock()
		// Store only if the snapshot this run used is still current: a
		// Rebind that raced with the run has already cleared the memo, and
		// installing an answer computed against the old snapshot would
		// serve stale results from the new one.
		if p.res == res {
			p.memo[q.K] = out
		}
		p.mu.Unlock()
	}
	return out, nil
}

// Stream evaluates the prepared query as a range-over-func iterator over
// the resident snapshot; see Stream for the iterator contract. Every
// Stream runs the engine — the answer memo serves only full Runs.
func (p *Prepared) Stream(ctx context.Context, opts Options) iter.Seq2[Pair, error] {
	q := p.q
	if opts.K > 0 {
		q.K = opts.K
	}
	res := p.resident()
	if err := res.Check(q); err != nil {
		return func(yield func(Pair, error) bool) { yield(Pair{}, err) }
	}
	return streamSeq(ctx, q, opts, res)
}

// FindK solves Problem 3 (smallest k with at least delta skyline tuples)
// over the resident snapshot: every probe reuses the prepared join index
// and probe orders. The prepared query's K is irrelevant — the search
// spans the whole admissible range.
func (p *Prepared) FindK(ctx context.Context, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return p.resident().FindK(ctx, p.q, delta, alg)
}

// FindKAtMost solves Problem 4 (largest k with at most delta skyline
// tuples) over the resident snapshot; see FindK.
func (p *Prepared) FindKAtMost(ctx context.Context, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	return p.resident().FindKAtMost(ctx, p.q, delta, alg)
}

// Membership tests many joined pairs for skyline membership at the
// prepared query's K (or Options.K via Run — Membership always uses the
// prepared K), sharing the snapshot across probes; the result slice is
// parallel to pairs.
func (p *Prepared) Membership(ctx context.Context, pairs [][2]int) ([]bool, error) {
	return p.resident().Membership(ctx, p.q, pairs)
}
