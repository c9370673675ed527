package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/join"
	"repro/internal/service"
	"repro/internal/shard"
)

// clusterStack is a gateway over two shard services, all in process: each
// shard's handler sits behind a span middleware and an httptest server, and
// the gateway reaches them over loopback HTTP exactly as ksjqd -gateway
// does.
type clusterStack struct {
	shards []*shardNode
	gw     *shard.Gateway
	srv    *httptest.Server // the gateway's own wire surface; nil for the twin
}

type shardNode struct {
	svc *service.Service
	srv *httptest.Server
	// res caches a resident over the shard's partition of the query's pair,
	// valid at the versions it was built at.
	res      *core.Resident
	versions [2]uint64
}

func newClusterStack(tr *tracer, prefix string, serve bool) (*clusterStack, error) {
	c := &clusterStack{}
	var addrs []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{})
		h := tr.middleware(fmt.Sprintf("%sshard%d", prefix, i), httpapi.NewHandler(svc, service.DefaultRequestTimeout))
		n := &shardNode{svc: svc, srv: httptest.NewServer(h)}
		c.shards = append(c.shards, n)
		addrs = append(addrs, n.srv.URL)
	}
	gw, err := shard.New(context.Background(), addrs, shard.Config{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	if serve {
		c.srv = httptest.NewServer(tr.middleware("gateway", shard.NewHandler(gw, service.DefaultRequestTimeout)))
	}
	return c, nil
}

func (c *clusterStack) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, n := range c.shards {
		n.srv.Close()
		n.svc.Close()
	}
}

// resident returns a resident over the shard's partition of (r1, r2),
// rebuilding — and timing the build — when a mutation moved the versions.
func (n *shardNode) resident(tr *tracer, obs *observations, r1, r2, req string) (*core.Resident, core.Query, error) {
	rel1, v1, err := n.svc.Relation(r1)
	if err != nil {
		return nil, core.Query{}, err
	}
	rel2, v2, err := n.svc.Relation(r2)
	if err != nil {
		return nil, core.Query{}, err
	}
	q := core.Query{R1: rel1, R2: rel2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
	if n.res == nil || n.versions != [2]uint64{v1, v2} {
		us := tr.time("core.NewResident", "", req, "build", func() { n.res, err = core.NewResident(q) })
		if err != nil {
			return nil, q, err
		}
		n.versions = [2]uint64{v1, v2}
		if tr.on.Load() {
			obs.add("core.resident_build", "build", us)
		}
	}
	return n.res, q, nil
}

// shardSpans picks a stack's shard spans inside one gateway call.
func shardSpans(tr *tracer, prefix string, startUS, endUS float64) (all, queries, verifies []span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	all = within(tr.spans, startUS, endUS, func(s span) bool { return strings.HasPrefix(s.Name, prefix+"shard") })
	for _, s := range all {
		switch s.Path {
		case "/v1/query":
			queries = append(queries, s)
		case "/v1/verify":
			verifies = append(verifies, s)
		}
	}
	return all, queries, verifies
}

// runTracedCluster is the per-layer pass of the cluster workload: the
// client talks to stack A's gateway over HTTP; every op is then replayed by
// calling twin stack B's Gateway directly, a single-node twin service
// holding the whole data, and the engine over each twin shard's partition.
func runTracedCluster(cfg runConfig, outDir string) (*runResult, error) {
	tr, obs := newTracer(), newObservations()
	ctx := context.Background()
	a, err := newClusterStack(tr, "", true)
	if err != nil {
		return nil, err
	}
	defer a.close()
	b, err := newClusterStack(tr, "twin.", false)
	if err != nil {
		return nil, err
	}
	defer b.close()
	single := service.New(service.Config{})
	defer single.Close()

	s, err := newSession(cfg.workload, cfg.seed, cfg.sizes, a.srv.URL)
	if err != nil {
		return nil, err
	}
	if err := s.register(); err != nil {
		return nil, err
	}
	for _, d := range s.gen.Datasets {
		if _, err := b.gw.Register(ctx, d.Name, workload.Local, workload.Agg, d.Tuples); err != nil {
			return nil, err
		}
		r, err := dataset.New(d.Name, workload.Local, workload.Agg, d.Tuples)
		if err != nil {
			return nil, err
		}
		if _, err := single.Register(d.Name, r); err != nil {
			return nil, err
		}
	}

	res := &runResult{Metrics: make(map[string]float64)}
	run := &tracedRun{tr: tr, obs: obs, s: s, res: res}
	untraced, traced := traceRounds(cfg.workload, cfg.seconds)
	var before shard.Stats
	for _, ph := range []tracePhase{{rounds: 1, warm: true}, {rounds: untraced}, {rounds: traced, traced: true}} {
		if ph.traced {
			before = a.gw.Stats(ctx)
		}
		for n := 0; n < ph.rounds; n++ {
			round, served, err := run.serve(ph)
			if err != nil {
				return nil, err
			}
			if err := replayCluster(tr, obs, b, single, round, served, s.round-1, ph.traced); err != nil {
				return nil, err
			}
		}
	}
	after := a.gw.Stats(ctx)
	tr.on.Store(false)

	if res.Oracle, err = s.verify(cfg.oracleBudget); err != nil {
		return nil, err
	}

	m := res.Metrics
	large := largeClass[cfg.workload]
	small := func(class string) bool { return isQuery(class) && class != large }
	layerMetrics(m, obs, small)
	queries := float64(after.Queries - before.Queries)
	m["shard.r2_floats_per_query"] = float64(after.R2Floats-before.R2Floats) / queries
	m["shard.r2_messages_per_query"] = float64(after.R2Messages-before.R2Messages) / queries
	m["shard.r1_bytes_per_query"] = obs.sum("shard.r1_bytes", isQuery) / float64(len(obs.values("shard.r1_bytes", isQuery)))
	m["shard.gateway_self_us"] = obs.median("shard.gateway_self", small)
	m["shard.handler_self_us"] = obs.median("shard.handler_self", small)
	m["shard.round1_us"] = obs.median("shard.round1", small)
	m["shard.round2_us"] = obs.median("shard.round2", small)
	m["shard.r1_imbalance"] = obs.median("shard.r1_imbalance", small)
	m["shard.mutate_self_us"] = obs.median("shard.mutate_self", anyClass)
	m["shard.speedup_vs_single"] = obs.median("single.query", small) / obs.median("shard.gateway_query", small)
	m["service.verify_us"] = obs.median("service.verify", small)
	m["core.anydominators_us_per_vector"] = obs.median("core.anydominators_us_per_vector", small)
	// The httpapi layer runs on the shards here, inside round 1 and round 2;
	// the client-facing codec is the gateway's own handler.
	m["httpapi.query_self_us"], m["httpapi.ns_per_resp_byte"] = 0, 0

	if m["ksjqd.boot_ms"], err = bootTime(cfg, ""); err != nil {
		return nil, err
	}
	closeBudget(m, obs, small, m["ksjqd.transport_us"]+m["shard.handler_self_us"]+m["shard.gateway_self_us"]+
		m["shard.round1_us"]+m["shard.round2_us"])
	if err := tr.write(filepath.Join(outDir, "trace-"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// replayCluster files the served stack's shard spans under each traced
// query, then replays the round's ops: on the twin gateway by direct calls,
// on the single-node twin, and — for queries — on the twin shards' own
// partitions.
func replayCluster(tr *tracer, obs *observations, b *clusterStack, single *service.Service, round workload.Round, served map[string]servedOp, roundNo int, on bool) error {
	ctx := context.Background()
	tr.takeVerifies() // the served stack's; only the twin's are replayed
	for i, op := range round.Clients[0] {
		req, class := fmt.Sprintf("%d.0.%d", roundNo, i), opClass(op)
		if g := served[req].handler; on && op.Kind == workload.Query {
			_, r1, r2 := shardSpans(tr, "", g.StartUS, g.EndUS)
			slowest, total, bytes := 0.0, 0.0, 0
			for _, sp := range r1 {
				slowest = max(slowest, sp.us())
				total += sp.us()
				bytes += sp.Bytes
			}
			obs.add("shard.round1", class, slowest)
			if total > 0 {
				obs.add("shard.r1_imbalance", class, slowest*float64(len(r1))/total)
			}
			obs.add("shard.r1_bytes", class, float64(bytes))
			obs.add("shard.round2", class, unionUS(r2))
		}
		if op.Kind != workload.Query {
			var err error
			start := tr.at(time.Now())
			us := tr.time("shard.Gateway.commit", "gateway", req, class, func() {
				if op.Kind == workload.Insert {
					_, err = b.gw.InsertBatch(ctx, op.Relation, op.Tuples)
				} else {
					_, err = b.gw.DeleteBatch(ctx, op.Relation, op.IDs)
				}
			})
			if err == nil && op.Kind == workload.Insert {
				_, err = single.InsertBatch(op.Relation, op.Tuples)
			} else if err == nil {
				_, err = single.DeleteBatch(op.Relation, op.IDs)
			}
			if err != nil {
				return fmt.Errorf("trace: twin replay of %s: %w", req, err)
			}
			if on {
				all, _, _ := shardSpans(tr, "twin.", start, start+us)
				obs.add("shard.mutate_self", class, us-unionUS(all))
			}
			continue
		}
		qr := service.QueryRequest{R1: op.R1, R2: op.R2, K: op.K, Algorithm: "auto", NoCache: op.NoCache}
		var gres *shard.QueryResponse
		var sres *service.QueryResponse
		var err error
		start := tr.at(time.Now())
		us := tr.time("shard.Gateway.Query", "gateway", req, class, func() { gres, err = b.gw.Query(ctx, qr) })
		if err != nil {
			return fmt.Errorf("trace: twin replay of %s: %w", req, err)
		}
		verifies := tr.takeVerifies()
		singleUS := tr.time("single.Service.Query", "", req, class, func() { sres, err = single.Query(ctx, qr) })
		if err != nil {
			return err
		}
		if len(gres.Skyline) != len(sres.Skyline) {
			return fmt.Errorf("trace: twins disagree on %s: gateway %d pairs, single node %d", op.Class, len(gres.Skyline), len(sres.Skyline))
		}
		if !on {
			continue
		}
		all, _, _ := shardSpans(tr, "twin.", start, start+us)
		obs.add("shard.gateway_self", class, us-unionUS(all))
		obs.add("shard.gateway_query", class, us)
		obs.add("shard.handler_self", class, served[req].handler.us()-us)
		obs.add("single.query", class, singleUS)
		if err := replayShardWork(tr, obs, b, op, verifies, req, class); err != nil {
			return err
		}
	}
	return nil
}

// replayShardWork times, on the twin stack's shards, what a gateway query
// made them do: the engine's run over each partition (round 1) and the
// verification votes on the vectors the gateway shipped (round 2).
func replayShardWork(tr *tracer, obs *observations, b *clusterStack, op workload.Op, verifies []capturedVerify, req, class string) error {
	ctx := context.Background()
	for _, n := range b.shards {
		res, q, err := n.resident(tr, obs, op.R1, op.R2, req)
		if err != nil {
			return err
		}
		q.K = op.K
		if _, err := observeMiss(tr, obs, res, q, "shard", req, class); err != nil {
			return err
		}
	}
	for _, v := range verifies {
		var body httpapi.VerifyJSON
		if err := json.Unmarshal(v.body, &body); err != nil {
			return fmt.Errorf("trace: captured verify request: %w", err)
		}
		if len(body.Vectors) == 0 {
			continue
		}
		n := b.shards[0]
		if strings.HasSuffix(v.shard, "1") {
			n = b.shards[1]
		}
		var err error
		us := tr.time("service.Verify", "shard", req, class, func() {
			_, err = n.svc.Verify(ctx, service.VerifyRequest{R1: body.R1, R2: body.R2, K: body.K, Vectors: body.Vectors})
		})
		if err != nil {
			return err
		}
		obs.add("service.verify", class, us)
		res, q, err := n.resident(tr, obs, body.R1, body.R2, req)
		if err != nil {
			return err
		}
		q.K = body.K
		us = tr.time("core.AnyDominators", "service.Verify", req, class, func() {
			_, err = res.AnyDominators(ctx, q, body.Vectors)
		})
		if err != nil {
			return err
		}
		obs.add("core.anydominators_us_per_vector", class, us/float64(len(body.Vectors)))
	}
	return nil
}
