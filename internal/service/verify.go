package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/join"
	"repro/internal/store"
)

// VerifyRequest asks the service to vote on foreign candidate vectors:
// for each vector, does some joined tuple of the named local join
// k-dominate it? This is the verification round of the distributed
// scheme (DESIGN.md §13) served shard-side — the gateway ships surviving
// round-1 candidates here and keeps only the vectors no peer dominates.
// Join and Agg use the CLI spellings, exactly like QueryRequest. The
// vectors come in one of two forms: Vectors, each of the joined width of
// (R1, R2), or Candidates, the compact form (join.Components) whose table
// rows have R1's and R2's local widths and whose aggregate rows have the
// aggregate width. Giving both is a bad request.
type VerifyRequest struct {
	R1, R2     string
	K          int
	Join       string
	Agg        string
	Vectors    [][]float64
	Candidates *join.Components
	// Timeout bounds this request (queue wait + execution); 0 defers to
	// Config.DefaultTimeout, negative means no deadline.
	Timeout time.Duration
}

// VerifyResponse reports the votes: Dominated is parallel to the request
// vectors (or candidate pairs), true where the local join holds a
// k-dominator.
type VerifyResponse struct {
	Dominated []bool
	// Versions are the (R1, R2) registry versions the votes are valid at.
	Versions [2]uint64
	// Elapsed is the service-side wall time for this request.
	Elapsed time.Duration
}

// Verify answers one verification-round request. It runs through the same
// admission scheduler as Query and holds the read lock for the duration,
// so votes are always consistent with one registry state. Strict
// aggregators check each vector against its target sets τ(u) ⋈ τ(v),
// which scan the resident's sum-sorted R1 order; non-strict ones scan the
// materialized join (the same split core.AnyDominatorsContext makes).
func (s *Service) Verify(ctx context.Context, req VerifyRequest) (*VerifyResponse, error) {
	start := time.Now()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.verifies.Add(1)
	// Check the request like a query before admission, so a malformed one
	// is rejected for what it is, never as overload. Like an "auto" query
	// it admits any aggregator: a non-strict one votes through the scan.
	if req.Vectors != nil && req.Candidates != nil {
		return nil, fmt.Errorf("%w: give vectors or candidates, not both", ErrBadRequest)
	}
	qreq := QueryRequest{R1: req.R1, R2: req.R2, K: req.K, Join: req.Join, Agg: req.Agg}
	p, err := ParseRequest(qreq)
	if err != nil {
		return nil, err
	}
	q, _, _, err := s.resolveAndValidate(qreq, p)
	if err != nil {
		return nil, err
	}
	if c := req.Candidates; c != nil {
		if err := c.Check(q.R1.Local, q.R2.Local, q.R1.Agg); err != nil {
			return nil, fmt.Errorf("%w: candidates: %v", ErrBadRequest, err)
		}
	}
	for i, v := range req.Vectors {
		if len(v) != q.Width() {
			return nil, fmt.Errorf("%w: vector %d has %d attributes, joined width is %d",
				ErrBadRequest, i, len(v), q.Width())
		}
	}

	ctx, cancel := WithTimeout(ctx, req.Timeout, s.cfg.DefaultTimeout)
	defer cancel()
	release, err := s.sched.acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	defer release()

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Resolve again under the lock the votes are taken under: the registry
	// may have moved on while the request queued.
	q, key, versions, err := s.resolveLocked(qreq, p)
	if err != nil {
		return nil, err
	}

	// The checker path probes the resident index, so repeated verification
	// rounds over an unchanged partition skip the build — the same
	// amortization the query path gets. A non-strict aggregator scans the
	// join instead and only pays the resident lookup.
	res, err := s.residents.get(residentKeyOf(key), q)
	if err != nil {
		return nil, err
	}
	vectors := req.Vectors
	if req.Candidates != nil {
		vectors = req.Candidates.Vectors()
	}
	dominated, err := res.AnyDominators(ctx, q, vectors)
	if err != nil {
		return nil, err
	}
	return &VerifyResponse{
		Dominated: dominated,
		Versions:  versions,
		Elapsed:   time.Since(start),
	}, nil
}

// Unregister removes a relation from the registry, dropping every answer
// standing over it (subscriptions to them end with ErrUnknownRelation)
// and its resident indexes. The gateway uses this when
// a delete batch drains a shard's entire partition of a relation —
// registered relations stay non-empty, so an empty partition must leave
// the registry rather than linger at zero rows.
func (s *Service) Unregister(name string) error {
	// Unregister is a writer like any commit: ingestMu queues it behind one
	// still waiting on its fsync (lock order: ingestMu before mu).
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rels[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	// Durable before visible, like RegisterWindow: a failed log leaves the
	// registry untouched.
	if err := s.logSynced(store.Record{Type: store.RecUnregister, Relation: name}); err != nil {
		return err
	}
	delete(s.rels, name)
	s.cache.Purge(func(key AnswerKey) bool { return key.Names(name) }, fmt.Errorf("%w: %q", ErrUnknownRelation, name))
	s.residents.dropRelation(name)
	return nil
}
