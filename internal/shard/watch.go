package shard

import (
	"context"
	"fmt"

	"repro/internal/join"
	"repro/internal/service"
)

// Gateway watches: the single-node service pushes deltas from its live
// maintainer; the gateway has no resident data to maintain, so it
// re-runs the two-round scatter-gather after every gateway-driven
// mutation touching a watched relation and diffs against the served
// snapshot. The refresh happens while the mutation still holds the
// gateway's write lock — the same linearization point the single-node
// ingest path uses — so subscribers see exactly one coalesced delta per
// batch, in commit order, with a gateway-side sequence. The re-query is
// cheap in steady state: shards answer round 1 from their own
// maintainers and answer caches (the PR 5 machinery), so a watch refresh
// is mostly two round trips, not a recompute.

// gwWatchKey is the normalized identity of a watched gateway query.
type gwWatchKey struct {
	r1, r2 string
	cond   join.Condition
	agg    string
	k      int
}

func (k gwWatchKey) names(rel string) bool { return k.r1 == rel || k.r2 == rel }

// gwWatchSet is the shared state of all subscriptions to one watched
// query: the served snapshot deltas diff against, and the subscriber
// list. Mutated only under the gateway's write lock.
type gwWatchSet struct {
	key      gwWatchKey
	req      service.QueryRequest
	last     []join.Pair
	versions [2]uint64
	subs     map[*Watch]struct{}
}

// Watch is the single-node service's subscription type: the gateway
// publishes its re-merged deltas through it, so the Events / Err / Close
// contract and the NDJSON wire surface are identical by construction.
type Watch = service.Watch

// Watch subscribes to a query's merged answer. The first event (Seq 0)
// is the current answer as Added; each later event is the coalesced
// delta one gateway insert or delete batch caused. Like the single-node
// service, only strictly monotonic aggregators are watchable. The
// context governs the subscription's lifetime.
func (g *Gateway) Watch(ctx context.Context, req service.QueryRequest) (*Watch, error) {
	if err := g.track(); err != nil {
		return nil, err
	}
	defer g.wg.Done()
	cond, agg, err := g.parseQuery(req)
	if err != nil {
		return nil, err
	}
	if !agg.Strict {
		return nil, fmt.Errorf("%w: watch requires a strictly monotonic aggregator (got %q)", service.ErrBadRequest, agg.Name)
	}
	// Establish under the write lock: mutations also hold it, so the
	// snapshot and the subscription are atomic against ingest — no
	// retry loop needed, unlike the single-node service whose queries
	// run under a read lock.
	g.mu.Lock()
	defer g.mu.Unlock()
	key := gwWatchKey{r1: req.R1, r2: req.R2, cond: cond, agg: agg.Name, k: req.K}
	ws, live := g.watches[key]
	if !live {
		resp, err := g.queryLocked(ctx, req)
		if err != nil {
			return nil, err
		}
		snapshot := resp.Skyline
		if snapshot == nil {
			snapshot = []join.Pair{}
		}
		ws = &gwWatchSet{
			key: key, req: req,
			last: snapshot, versions: resp.Versions,
			subs: make(map[*Watch]struct{}),
		}
		g.watches[key] = ws
	}
	w := service.NewWatch(ctx, func(w *Watch) { g.removeWatch(ws, w) })
	ws.subs[w] = struct{}{}
	w.Publish(service.WatchEvent{Added: ws.last, Versions: ws.versions})
	return w, nil
}

// refreshWatchesLocked re-runs every watch touching the mutated relation
// and publishes the delta. Caller holds the write lock, immediately
// after committing a mutation. The refresh must not inherit the
// caller's cancellation: the mutation has already committed, so its
// watchers must hear about it even if the client hung up.
func (g *Gateway) refreshWatchesLocked(ctx context.Context, name string) {
	for key, ws := range g.watches {
		if !key.names(name) {
			continue
		}
		resp, err := g.queryLocked(context.WithoutCancel(ctx), ws.req)
		if err != nil {
			// The refresh could not observe the new answer (a shard went
			// down mid-watch). A silent gap would leave subscribers
			// believing a stale snapshot, so fail the subscription loudly.
			for sub := range ws.subs {
				sub.Terminate(err)
			}
			delete(g.watches, key)
			continue
		}
		cur := resp.Skyline
		added, removed := service.DiffPairs(ws.last, cur)
		ws.last = cur
		ws.versions = resp.Versions
		for sub := range ws.subs {
			sub.Publish(service.WatchEvent{Added: added, Removed: removed, Versions: ws.versions})
		}
	}
}

// dropWatchesLocked terminates every subscription whose key matches;
// caller holds the write lock (Unregister, Close).
func (g *Gateway) dropWatchesLocked(match func(gwWatchKey) bool, cause error) {
	for key, ws := range g.watches {
		if !match(key) {
			continue
		}
		for sub := range ws.subs {
			sub.Terminate(cause)
		}
		delete(g.watches, key)
	}
}

// removeWatch unsubscribes w, dropping its set when it was the last
// subscriber.
func (g *Gateway) removeWatch(ws *gwWatchSet, w *Watch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if current, ok := g.watches[ws.key]; !ok || current != ws {
		return
	}
	delete(ws.subs, w)
	if len(ws.subs) == 0 {
		delete(g.watches, ws.key)
	}
}
