// Package shard turns the partition-by-join-key scheme of
// internal/distributed into an actual multi-node deployment: a Gateway
// scatter-gathers over N ksjqd shard processes speaking the
// internal/httpapi wire surface over keep-alive HTTP.
//
// Placement is by consistent hash on the join-key symbol
// (distributed.NodeOf — the same function the simulator uses), so every
// join group lives wholly on one shard and any joined pair — candidate
// or dominator — is local to exactly one shard. A query then runs
// distributed.Rounds, the coordinator the simulator runs, with the shards
// as its transport (shardTransport):
//
//  1. Local round: the query goes out to every shard holding both
//     relations; each shard answers from its own residents and maintained
//     entries (all of PR 3–8's caching works per-shard), and the local
//     skylines come back as candidate supersets in compact form
//     (httpapi.CandidatesJSON: each distinct row's local attributes once).
//  2. Verification round: each shard is sent the foreign candidates
//     (POST /v1/verify), in the same form; shards recombine the
//     vectors, vote with the target-set checker over their resident
//     index, and only candidates no peer dominates survive. Rounds counts
//     the messages and floats; the gateway accumulates them.
//
// A query runs under one deadline, its timeout, however many legs and
// retries both rounds take; each leg carries what is left of it.
//
// Ingest, deletes, and registration fan out by the same placement, with
// the gateway keeping the authoritative global row numbering (global ids
// mirror a single-node ksjqd over the same mutation history — the oracle
// equivalence the tests pin).
//
// Everything above the two rounds is the single-node serving layer, not a
// copy of it: the HTTP surface is internal/httpapi's one handler with the
// Gateway behind it (handler.go), a request is checked by the service's
// own ParseRequest and CheckRequest before any cache lookup, and merged
// answers stand in a service.AnswerStore — cache hits, LRU eviction,
// watch subscriptions and their deltas are the store's; the gateway only
// recomputes a watched answer after each mutation it commits (watch.go).
//
// Only the coordinator is shared with the in-process simulator: its
// partitioning and node-side evaluation stay independent of the shards'
// residents, caches, wire codec and id mapping, so it remains an oracle —
// sharded answer ≡ distributed.Run ≡ single-node core.Run.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/httpapi"
	"repro/internal/join"
	"repro/internal/service"
)

// ErrClosed is returned by every Gateway method after Close.
var ErrClosed = errors.New("shard: gateway closed")

// SourceSharded marks answers assembled by the gateway's two-round
// scatter-gather; single-shard fast paths report the shard's own source.
const SourceSharded = service.Source("sharded")

// Config tunes one Gateway.
type Config struct {
	// ShardTimeout bounds every per-shard request leg, derived from the
	// operator's -timeout bound exactly like the single-node wire clamp:
	// 0 means service.DefaultRequestTimeout, negative disables the bound.
	ShardTimeout time.Duration
	// HTTPClient overrides the keep-alive transport (tests inject the
	// httptest server's client). Nil uses a pooled default.
	HTTPClient *http.Client
}

// Gateway coordinates a cluster of ksjqd shards. Create with New, share
// freely across goroutines, Close when done.
type Gateway struct {
	cfg    Config
	shards []*client
	addrs  []string

	// mu guards placement. Queries hold it shared across both rounds, so
	// placement cannot move under a scatter-gather; mutations hold it
	// exclusively across their shard commits and the watch refresh, so the
	// cluster observes one linear mutation history.
	mu   sync.RWMutex
	rels map[string]*relPlace

	// answers holds the merged answers, the cluster analogue of (and the
	// same structure as) the single-node service's: every mutation flows
	// through the gateway and bumps the placement versions, so version
	// equality proves an answer fresh without touching any shard. A hit
	// skips both rounds — the scatter, the candidate exchange, and the
	// verification — which is what makes warm repeat queries
	// round-trip-free. Least recently used answers are evicted past
	// answerCap; an answer with subscribers never is.
	answers *service.AnswerStore

	// lifeMu orders operation starts against Close: track holds it shared
	// around the closed check + wg.Add, Close holds it exclusively while
	// flipping closed — so once Close proceeds to wg.Wait, no new
	// operation can slip in between the check and the Add.
	lifeMu sync.RWMutex
	closed atomic.Bool
	// wg counts in-flight scatter-gathers; Close drains it so shutdown
	// never abandons a half-merged answer.
	wg sync.WaitGroup

	queries, inserts, deletes atomic.Uint64
	r2Messages, r2Floats      atomic.Uint64
	cacheHits                 atomic.Uint64
}

// answerCap bounds the unwatched merged answers kept, like the service's
// Config.CacheEntries default.
const answerCap = 256

// New connects to the shard processes and verifies each is alive. The
// shard list is fixed for the gateway's lifetime — placement hashes over
// its length, so changing the cluster size means re-sharding, which is
// out of scope here (DESIGN.md §13).
func New(ctx context.Context, addrs []string, cfg Config) (*Gateway, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: no shard addresses", service.ErrBadRequest)
	}
	maxTimeout := cfg.ShardTimeout
	if maxTimeout == 0 {
		maxTimeout = service.DefaultRequestTimeout
	} else if maxTimeout < 0 {
		maxTimeout = 0
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	g := &Gateway{
		cfg:     cfg,
		addrs:   addrs,
		rels:    make(map[string]*relPlace),
		answers: service.NewAnswerStore(answerCap),
	}
	for _, a := range addrs {
		g.shards = append(g.shards, newClient(a, hc, maxTimeout))
	}
	for _, c := range g.shards {
		if err := c.health(ctx); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Shards lists the configured shard addresses.
func (g *Gateway) Shards() []string { return append([]string(nil), g.addrs...) }

// track registers one in-flight operation for the shutdown drain.
func (g *Gateway) track() error {
	g.lifeMu.RLock()
	defer g.lifeMu.RUnlock()
	if g.closed.Load() {
		return ErrClosed
	}
	g.wg.Add(1)
	return nil
}

// Close marks the gateway closed, drains in-flight scatter-gathers, and
// terminates every watch subscription. Shards are left running — they
// are independent processes.
func (g *Gateway) Close() error {
	g.lifeMu.Lock()
	first := g.closed.CompareAndSwap(false, true)
	g.lifeMu.Unlock()
	if !first {
		return nil
	}
	g.wg.Wait()
	g.mu.Lock()
	g.answers.Purge(func(service.AnswerKey) bool { return true }, ErrClosed)
	g.mu.Unlock()
	return nil
}

// QueryResponse is one gateway answer: the merged skyline plus the
// distributed-round statistics the simulator was built to observe.
type QueryResponse struct {
	Skyline []join.Pair
	// Snapshot is the gateway store's published answer a hit was served
	// from, as service.QueryResponse's; nil when the rounds ran.
	Snapshot *service.Snapshot
	// Source is the coldest source any shard reported in round 1
	// (computed > maintained > cached), or SourceSharded when no shard
	// took part; repeat queries over unchanged shards report
	// warm sources exactly like a single node would.
	Source    service.Source
	Algorithm string
	// Versions are the gateway's (R1, R2) placement versions.
	Versions [2]uint64
	// Locals are R1's and R2's local widths, as service.QueryResponse's.
	Locals  [2]int
	Elapsed time.Duration
	// Dist carries the two-round breakdown: candidates per shard and the
	// verification round's message/float traffic.
	Dist distributed.Stats
	// R1Elapsed is each shard's round-1 wall clock (zero for shards that
	// did not participate) — the balance evidence: on a multi-core
	// deployment the round-1 latency is the maximum entry, so the closer
	// they are, the closer the scatter gets to the ideal 1/shards.
	R1Elapsed []time.Duration
}

// checkLocked resolves the request's placements and runs the service's
// O(1) geometry check over their schemas, then the one check only a
// cluster has. Caller holds g.mu.
func (g *Gateway) checkLocked(req service.QueryRequest, p service.Parsed) (rp1, rp2 *relPlace, err error) {
	rp1, ok := g.rels[req.R1]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", service.ErrUnknownRelation, req.R1)
	}
	rp2, ok = g.rels[req.R2]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", service.ErrUnknownRelation, req.R2)
	}
	if err := service.CheckRequest(rp1.schema, rp2.schema, req.K, p); err != nil {
		return nil, nil, err
	}
	return rp1, rp2, distributed.CheckShardable(p.Cond, len(g.shards))
}

// Query answers one request: a standing answer at the current placement
// versions, or the two-round scatter-gather. Safe for arbitrary
// concurrent use; holds the gateway's read lock across both rounds so
// placement cannot move mid-query.
func (g *Gateway) Query(ctx context.Context, req service.QueryRequest) (*QueryResponse, error) {
	if err := g.track(); err != nil {
		return nil, err
	}
	defer g.wg.Done()
	g.queries.Add(1)
	p, err := service.ParseRequest(req)
	if err != nil {
		return nil, err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.queryLocked(ctx, req, p)
}

// queryLocked checks the request — before the store lookup, so a malformed
// one is rejected whether or not its answer stands — then serves the
// standing answer or runs both rounds and leaves the result standing. A
// NoCache request, like the single node's, neither reads nor writes the
// store. The caller holds g.mu (read for Query, write for Watch).
func (g *Gateway) queryLocked(ctx context.Context, req service.QueryRequest, p service.Parsed) (*QueryResponse, error) {
	start := time.Now()
	rp1, rp2, err := g.checkLocked(req, p)
	if err != nil {
		return nil, err
	}
	key, versions := p.Key(req), [2]uint64{rp1.version, rp2.version}
	if !req.NoCache {
		if snap, algo, _, ok := g.answers.Lookup(key, versions); ok {
			g.cacheHits.Add(1)
			elapsed := time.Since(start)
			return &QueryResponse{
				Skyline: snap.Skyline, Snapshot: snap, Source: service.SourceCached, Algorithm: algo,
				Versions: versions, Locals: [2]int{rp1.schema.Local, rp2.schema.Local}, Elapsed: elapsed,
				Dist: distributed.Stats{Nodes: len(g.shards), CandidatesPerNode: make([]int, len(g.shards)), Total: elapsed},
			}, nil
		}
	}
	// One deadline over both rounds, as Service.Query sets one over queue
	// wait and execution.
	ctx, cancel := service.WithTimeout(ctx, req.Timeout, service.DefaultRequestTimeout)
	defer cancel()
	resp, err := g.scatter(ctx, req, rp1, rp2, start)
	if err != nil {
		return nil, err
	}
	// The zero core.Query: the gateway carries answers across mutations by
	// re-running the rounds (refreshWatchesLocked), never by a maintainer.
	if !req.NoCache {
		g.answers.Store(key, versions, core.Query{}, resp.Skyline, resp.Algorithm)
	}
	return resp, nil
}

// scatter runs both rounds for a checked request over its placements —
// distributed.Rounds with the shards as its transport — and adds the
// round-2 traffic to the gateway's counters. The caller holds g.mu (read
// for Query, write for Watch and the mutation paths' watch refresh).
func (g *Gateway) scatter(ctx context.Context, req service.QueryRequest, rp1, rp2 *relPlace, start time.Time) (*QueryResponse, error) {
	n := len(g.shards)
	t := &shardTransport{g: g, req: req, rp1: rp1, rp2: rp2, r1: make([]httpapi.QueryResponseJSON, n)}
	// A shard missing either relation holds no joined pair. With no
	// participant at all, every join group misses one side: the answer is
	// empty.
	var participants []int
	for s := range g.shards {
		if rp1.registered[s] && rp2.registered[s] {
			participants = append(participants, s)
		}
	}
	skyline, st, err := distributed.Rounds(ctx, t, participants, n)
	if err != nil {
		return nil, err
	}
	g.r2Messages.Add(uint64(st.MessagesSent))
	g.r2Floats.Add(uint64(st.FloatsShipped))
	resp := &QueryResponse{
		Skyline: skyline, Source: SourceSharded,
		Versions: [2]uint64{rp1.version, rp2.version}, Locals: [2]int{rp1.schema.Local, rp2.schema.Local},
		Dist: st, R1Elapsed: make([]time.Duration, n),
	}
	if len(participants) == 0 {
		resp.Algorithm = emptyJoinArm(req, rp1, rp2)
	}
	for i, s := range participants {
		r := t.r1[s]
		resp.Source = colderSource(resp.Source, service.Source(r.Source))
		resp.R1Elapsed[s] = time.Duration(r.ElapsedUS) * time.Microsecond
		if i == 0 {
			resp.Algorithm = r.Algorithm
		}
	}
	resp.Dist.Total = time.Since(start)
	resp.Elapsed = resp.Dist.Total
	return resp, nil
}

// emptyJoinArm is the arm a single node reports for a join with no pairs:
// the one rule, over the placements' row-less schemas. req was checked.
func emptyJoinArm(req service.QueryRequest, rp1, rp2 *relPlace) string {
	p, _ := service.ParseRequest(req)
	q := core.Query{R1: rp1.schema, R2: rp2.schema, Spec: join.Spec{Cond: p.Cond, Agg: p.Agg}, K: req.K}
	alg, _ := core.ResolveAuto(q, core.ExecOptions{Algorithm: p.Alg})
	return alg.Token()
}

// shardTransport is the distributed.Transport of one gateway query: node s
// is shard s over the wire, both rounds in the compact candidate form, its
// row ids mapped to global ids through the placements. r1[s] keeps what
// shard s's round 1 reported beside its answer.
type shardTransport struct {
	g        *Gateway
	req      service.QueryRequest
	rp1, rp2 *relPlace
	r1       []httpapi.QueryResponseJSON
}

func (t *shardTransport) Local(ctx context.Context, s int) (*join.Components, time.Duration, error) {
	req := t.req
	res, err := t.g.shards[s].query(ctx, httpapi.QueryJSON{
		R1: req.R1, R2: req.R2, K: req.K,
		Join: req.Join, Agg: req.Agg, Algorithm: req.Algorithm,
		Workers: req.Workers, NoCache: req.NoCache,
		TimeoutMS:  legTimeoutMS(ctx),
		Components: true,
	})
	if err != nil {
		return nil, 0, err
	}
	c := (*join.Components)(res.Candidates)
	if err := t.checkLocal(s, c); err != nil {
		return nil, 0, fmt.Errorf("shard %s: round-1 reply: %w", t.g.shards[s].addr, err)
	}
	for i, id := range c.LeftIDs {
		c.LeftIDs[i] = t.rp1.toGlobal(s, id)
	}
	for i, id := range c.RightIDs {
		c.RightIDs[i] = t.rp2.toGlobal(s, id)
	}
	res.Candidates, t.r1[s] = nil, res
	return c, time.Duration(res.ElapsedUS) * time.Microsecond, nil
}

// checkLocal refuses a round-1 reply the coordinator could not index
// safely: no candidates, a malformed table, or ids missing or outside
// shard s's partitions.
func (t *shardTransport) checkLocal(s int, c *join.Components) error {
	if c == nil || c.LeftIDs == nil || c.RightIDs == nil {
		return errors.New("no candidates with ids")
	}
	if err := c.Check(t.rp1.schema.Local, t.rp2.schema.Local, t.rp1.schema.Agg); err != nil {
		return err
	}
	for _, side := range []struct {
		ids []int
		rp  *relPlace
	}{{c.LeftIDs, t.rp1}, {c.RightIDs, t.rp2}} {
		for _, id := range side.ids {
			if id < 0 || id >= side.rp.rows(s) {
				return fmt.Errorf("row id %d outside the shard's %d rows", id, side.rp.rows(s))
			}
		}
	}
	return nil
}

func (t *shardTransport) Verify(ctx context.Context, s int, batch *join.Components) ([]bool, error) {
	res, err := t.g.shards[s].verify(ctx, httpapi.VerifyJSON{
		R1: t.req.R1, R2: t.req.R2, K: t.req.K,
		Join: t.req.Join, Agg: t.req.Agg,
		Candidates: (*httpapi.CandidatesJSON)(batch),
		TimeoutMS:  legTimeoutMS(ctx),
	})
	return res.Dominated, err
}

// legTimeoutMS is the budget a shard request carries: what is left of the
// query's deadline, rounded up to a whole millisecond and at least one (0
// would read as "the operator bound"), or 0 when the query has none.
func legTimeoutMS(ctx context.Context) int64 {
	deadline, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(1, int64((time.Until(deadline)+time.Millisecond-1)/time.Millisecond))
}

// colderSource merges round-1 sources: a scatter-gather is only as warm
// as its coldest shard.
func colderSource(a, b service.Source) service.Source {
	for _, s := range []service.Source{service.SourceComputed, service.SourceMaintained, service.SourceCached} {
		if a == s || b == s {
			return s
		}
	}
	return a
}

// Register places a relation across the cluster: tuples are partitioned
// by join key and registered on every shard that owns at least one. A
// shard failing mid-registration rolls the others back (best effort), so
// the relation either exists cluster-wide or not at all. Windowed
// relations are not supported in gateway mode — shard-side expiry would
// renumber rows without the gateway's mapping hearing about it.
func (g *Gateway) Register(ctx context.Context, name string, local, agg int, ts []dataset.Tuple) (uint64, error) {
	if err := g.track(); err != nil {
		return 0, err
	}
	defer g.wg.Done()
	if name == "" {
		return 0, fmt.Errorf("%w: empty relation name", service.ErrBadRequest)
	}
	// Full single-node validation up front — the constructor's per-tuple
	// checks, then the Validate the service runs at registration (which is
	// what refuses an empty relation): a batch that one ksjqd would reject
	// must not be half-registered across several, or on none.
	rel, err := dataset.New(name, local, agg, ts)
	if err == nil {
		err = rel.Validate()
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", service.ErrBadRequest, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.rels[name]; ok {
		return 0, fmt.Errorf("%w: %q", service.ErrDuplicateRelation, name)
	}
	rp := newRelPlace(name, local, agg, len(g.shards))
	batches := rp.planInsert(ts)
	ok := make([]bool, len(g.shards))
	for s, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if _, err := g.shards[s].register(ctx, httpapi.RegisterJSON{
			Name: name, Local: local, Agg: agg, Tuples: wireTuples(batch),
		}); err != nil {
			for s2, done := range ok {
				if done {
					_ = g.shards[s2].unregister(context.WithoutCancel(ctx), name)
				}
			}
			return 0, err
		}
		ok[s] = true
		rp.registered[s] = true
	}
	rp.applyInsert(ts, ok)
	g.rels[name] = rp
	return rp.version, nil
}

// Unregister removes a relation cluster-wide, with every answer standing
// over it: version equality cannot prove those fresh once the relation is
// gone — a re-registered relation restarts at placement version 1 — and
// their subscribers end with ErrUnknownRelation, like the single-node
// service's.
func (g *Gateway) Unregister(ctx context.Context, name string) error {
	if err := g.track(); err != nil {
		return err
	}
	defer g.wg.Done()
	g.mu.Lock()
	defer g.mu.Unlock()
	rp, ok := g.rels[name]
	if !ok {
		return fmt.Errorf("%w: %q", service.ErrUnknownRelation, name)
	}
	var firstErr error
	for s, reg := range rp.registered {
		if !reg {
			continue
		}
		if err := g.shards[s].unregister(ctx, name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(g.rels, name)
	g.answers.Purge(func(key service.AnswerKey) bool { return key.Names(name) },
		fmt.Errorf("%w: %q", service.ErrUnknownRelation, name))
	return firstErr
}

// Relations lists the cluster placement, sorted by name.
func (g *Gateway) Relations() []RelationPlacement {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]RelationPlacement, 0, len(g.rels))
	for name, rp := range g.rels {
		info := RelationPlacement{
			Name: name, Version: rp.version, Tuples: rp.size(),
			Local: rp.schema.Local, Agg: rp.schema.Agg,
			PerShard: make([]int, len(rp.perShard)),
		}
		for s := range rp.perShard {
			info.PerShard[s] = rp.rows(s)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RelationPlacement is one relation's cluster-wide metadata.
type RelationPlacement struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Tuples   int    `json:"tuples"`
	Local    int    `json:"local"`
	Agg      int    `json:"agg"`
	PerShard []int  `json:"per_shard"`
}

// shardPlan is one validated mutation batch split by owning shard.
type shardPlan struct {
	// size is how many of the batch's rows shard s's group carries.
	size func(s int) int
	// send commits shard s's group on that shard.
	send func(s int) error
	// apply folds the groups that landed into the placement.
	apply func(landed []bool)
}

// mutate is the skeleton every gateway mutation shares: under the write
// lock, plan validates the whole batch before any shard sees any of it
// and splits it by owning shard; the groups then commit shard by shard,
// the placement takes exactly what landed, the version moves once, and
// the watches over the relation refresh. It returns how many rows landed
// and the relation's placement afterwards.
//
// Failure semantics: shards commit sequentially; a failing shard keeps
// its group un-applied while earlier groups stay committed, the mapping
// reflects exactly the surviving state, and the error (naming the shard)
// is returned beside a non-zero count — the batch is partially applied.
// Cross-shard atomicity would need a transaction protocol the scheme
// deliberately avoids.
func (g *Gateway) mutate(ctx context.Context, name string, n int, batches *atomic.Uint64,
	plan func(rp *relPlace) (shardPlan, error)) (applied int, rp *relPlace, err error) {
	if err := g.track(); err != nil {
		return 0, nil, err
	}
	defer g.wg.Done()
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: empty batch", service.ErrBadRequest)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rp, ok := g.rels[name]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q", service.ErrUnknownRelation, name)
	}
	p, err := plan(rp)
	if err != nil {
		return 0, nil, err
	}
	landed := make([]bool, len(g.shards))
	for s := range g.shards {
		if p.size(s) == 0 {
			continue
		}
		if err = p.send(s); err != nil {
			break
		}
		landed[s] = true
		applied += p.size(s)
	}
	if applied == 0 {
		return 0, nil, err
	}
	p.apply(landed)
	rp.version++
	batches.Add(1)
	g.refreshWatchesLocked(ctx, name)
	return applied, rp, err
}

func wireTuples(ts []dataset.Tuple) []httpapi.TupleJSON {
	wire := make([]httpapi.TupleJSON, len(ts))
	for i, t := range ts {
		wire[i] = httpapi.FromTuple(t)
	}
	return wire
}

// InsertBatch appends a batch through the placement: tuples group by
// owning shard, each group commits as one shard-side group commit, and
// the mapping extends with what actually landed (see mutate for partial
// failure). The result is the single-node one with its maintenance counters
// zero — answers are maintained shard-side. First tuples for a shard register the relation there (lazy
// registration keeps empty partitions off the registry — shards reject
// empty relations).
func (g *Gateway) InsertBatch(ctx context.Context, name string, ts []dataset.Tuple) (*service.InsertResult, error) {
	first := 0
	applied, rp, err := g.mutate(ctx, name, len(ts), &g.inserts, func(rp *relPlace) (shardPlan, error) {
		for i, t := range ts {
			if len(t.Attrs) != rp.schema.D() {
				return shardPlan{}, fmt.Errorf("%w: tuple %d has %d attributes, want %d", service.ErrBadRequest, i, len(t.Attrs), rp.schema.D())
			}
		}
		first = rp.size()
		batches := rp.planInsert(ts)
		return shardPlan{
			size: func(s int) int { return len(batches[s]) },
			send: func(s int) error {
				if rp.registered[s] {
					_, err := g.shards[s].insert(ctx, httpapi.InsertJSON{Relation: name, Tuples: wireTuples(batches[s])})
					return err
				}
				_, err := g.shards[s].register(ctx, httpapi.RegisterJSON{
					Name: name, Local: rp.schema.Local, Agg: rp.schema.Agg, Tuples: wireTuples(batches[s]),
				})
				if err == nil {
					rp.registered[s] = true
				}
				return err
			},
			apply: func(landed []bool) { rp.applyInsert(ts, landed) },
		}, nil
	})
	if applied == 0 {
		return nil, err
	}
	return &service.InsertResult{ID: first, Count: applied, Version: rp.version}, err
}

// DeleteBatch removes rows by global id through the placement. A batch
// that drains a shard's entire partition unregisters the relation there
// instead (shards keep registered relations non-empty); the shard
// re-registers lazily on the next insert that hashes to it. Partial
// failure is as for InsertBatch (see mutate).
func (g *Gateway) DeleteBatch(ctx context.Context, name string, ids []int) (*service.DeleteResult, error) {
	applied, rp, err := g.mutate(ctx, name, len(ids), &g.deletes, func(rp *relPlace) (shardPlan, error) {
		sorted := append([]int(nil), ids...)
		sort.Ints(sorted)
		n := rp.size()
		for i, id := range sorted {
			if id < 0 || id >= n {
				return shardPlan{}, fmt.Errorf("%w: delete index %d out of range [0,%d)", service.ErrBadRequest, id, n)
			}
			if i > 0 && sorted[i-1] == id {
				return shardPlan{}, fmt.Errorf("%w: duplicate delete index %d", service.ErrBadRequest, id)
			}
		}
		if len(sorted) >= n {
			return shardPlan{}, fmt.Errorf("%w: cannot delete all %d rows of %q (registered relations stay non-empty)", service.ErrBadRequest, n, name)
		}
		del := rp.planRemove(sorted)
		return shardPlan{
			size: func(s int) int { return len(del[s]) },
			send: func(s int) error {
				if len(del[s]) < rp.rows(s) {
					_, err := g.shards[s].delete(ctx, httpapi.DeleteJSON{Relation: name, IDs: del[s]})
					return err
				}
				// The batch drains this shard's whole partition; an empty
				// relation cannot stay registered, so drop it shard-side.
				err := g.shards[s].unregister(ctx, name)
				if err == nil {
					rp.registered[s] = false
				}
				return err
			},
			apply: func(landed []bool) { rp.applyRemove(sorted, landed) },
		}, nil
	})
	if applied == 0 {
		return nil, err
	}
	return &service.DeleteResult{Count: applied, Version: rp.version}, err
}

// ShardStats is one shard's counter snapshot (or the error that kept it
// from answering).
type ShardStats struct {
	Addr  string         `json:"addr"`
	Error string         `json:"error,omitempty"`
	Stats *service.Stats `json:"stats,omitempty"`
}

// Stats is the cluster-wide counter snapshot: the gateway's own counters
// — including the round-2 message/float traffic promoted from
// distributed.Stats — plus each shard's service counters.
type Stats struct {
	Queries    uint64 `json:"queries"`
	Inserts    uint64 `json:"insert_batches"`
	Deletes    uint64 `json:"delete_batches"`
	R2Messages uint64 `json:"r2_messages"`
	R2Floats   uint64 `json:"r2_floats_shipped"`
	CacheHits  uint64 `json:"answer_cache_hits"`
	Watches    int    `json:"watches"`

	Relations []RelationPlacement `json:"relations"`
	Shards    []ShardStats        `json:"shards"`
}

// Stats snapshots the gateway counters and fans /v1/stats out to every
// shard. A shard that cannot answer is reported with its error rather
// than failing the whole snapshot.
func (g *Gateway) Stats(ctx context.Context) Stats {
	out := Stats{
		Queries:    g.queries.Load(),
		Inserts:    g.inserts.Load(),
		Deletes:    g.deletes.Load(),
		R2Messages: g.r2Messages.Load(),
		R2Floats:   g.r2Floats.Load(),
		CacheHits:  g.cacheHits.Load(),
		Relations:  g.Relations(),
		Shards:     make([]ShardStats, len(g.shards)),
	}
	_, _, out.Watches, _ = g.answers.Stats()
	var wg sync.WaitGroup
	for i, c := range g.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.stats(ctx)
			out.Shards[i] = ShardStats{Addr: c.addr}
			if err != nil {
				out.Shards[i].Error = err.Error()
				return
			}
			out.Shards[i].Stats = &st
		}()
	}
	wg.Wait()
	return out
}
