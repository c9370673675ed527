package shard

import (
	"context"
	"time"

	"repro/internal/join"
	"repro/internal/service"
)

// Gateway watches: the single-node service pushes deltas from its live
// maintainer; the gateway has no resident data to maintain, so after every
// mutation it commits it re-runs the two-round scatter-gather for each
// watched answer over the relation and publishes the result through the
// answer store, which diffs it against the served snapshot. The refresh
// happens while the mutation still holds the gateway's write lock — the
// same linearization point the single-node ingest path uses — so
// subscribers see exactly one coalesced delta per batch, in commit order.
// The re-query is cheap in steady state: shards answer round 1 from their
// own maintainers and answer caches (the PR 5 machinery), so a watch
// refresh is mostly two round trips, not a recompute.

// Watch is the single-node service's subscription type — the gateway's
// store hands them out — so the Events / Err / Close contract and the
// NDJSON wire surface are identical by construction.
type Watch = service.Watch

// Watch subscribes to a query's merged answer. The first event (Seq 0)
// is the current answer as Added; each later event is the coalesced
// delta one gateway insert or delete batch caused. Like the single-node
// service, only strictly monotonic aggregators are watchable, and NoCache
// is ignored. The context governs the subscription's lifetime.
func (g *Gateway) Watch(ctx context.Context, req service.QueryRequest) (*Watch, error) {
	if err := g.track(); err != nil {
		return nil, err
	}
	defer g.wg.Done()
	p, err := service.ParseWatchRequest(req)
	if err != nil {
		return nil, err
	}
	req.NoCache = false
	// Establish under the write lock: mutations also hold it, so the
	// snapshot and the subscription are atomic against ingest — no
	// retry loop needed, unlike the single-node service whose queries
	// run under a read lock. The query leaves its answer standing (if it
	// was not already) and nothing can supersede or evict it before the
	// attach: Store put it at the front of the LRU.
	g.mu.Lock()
	defer g.mu.Unlock()
	resp, err := g.queryLocked(ctx, req, p)
	if err != nil {
		return nil, err
	}
	return g.answers.Attach(ctx, g.answers.Standing(p.Key(req), resp.Versions)), nil
}

// refreshWatchesLocked re-runs every watched answer over the mutated
// relation and publishes the delta. Caller holds the write lock,
// immediately after committing a mutation. The refresh must not inherit
// the caller's cancellation: the mutation has already committed, so its
// watchers must hear about it even if the client hung up. A refresh that
// cannot observe the new answer (a shard went down mid-watch) ends the
// subscriptions with the error: a silent gap would leave subscribers
// believing a stale snapshot.
func (g *Gateway) refreshWatchesLocked(ctx context.Context, name string) {
	for _, a := range g.answers.Watched(name) {
		key := a.Key()
		rp1, rp2 := g.rels[key.R1], g.rels[key.R2]
		var cur []join.Pair
		resp, err := g.scatter(context.WithoutCancel(ctx), service.QueryRequest{
			R1: key.R1, R2: key.R2, K: key.K, Join: key.Cond.Token(), Agg: key.Agg,
		}, rp1, rp2, time.Now())
		if err == nil {
			cur = resp.Skyline
		}
		g.answers.Publish(a, cur, [2]uint64{rp1.version, rp2.version}, err)
	}
}
