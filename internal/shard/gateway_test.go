package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/httpapi"
	"repro/internal/join"
	"repro/internal/service"
)

// cluster is an in-process deployment: n real service.Service shards
// behind real HTTP servers, plus a gateway over them. Everything the
// gateway sees crosses a genuine TCP connection and the genuine JSON
// codec — only the processes are shared.
type cluster struct {
	gw      *Gateway
	svcs    []*service.Service
	servers []*httptest.Server
	urls    []string
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{SweepInterval: -1})
		srv := httptest.NewServer(httpapi.NewHandler(svc, 0))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { svc.Close() })
		c.svcs = append(c.svcs, svc)
		c.servers = append(c.servers, srv)
		c.urls = append(c.urls, srv.URL)
	}
	gw, err := New(context.Background(), c.urls, Config{})
	if err != nil {
		t.Fatalf("connecting gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	c.gw = gw
	return c
}

// newMirror is the single-node oracle the gateway must be
// indistinguishable from.
func newMirror(t *testing.T) *service.Service {
	t.Helper()
	svc := service.New(service.Config{SweepInterval: -1})
	t.Cleanup(func() { svc.Close() })
	return svc
}

// genTuples synthesizes keyed, banded tuples so every join condition is
// exercisable (datagen has no band support).
func genTuples(rng *rand.Rand, n, local, agg, groups int) []dataset.Tuple {
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		attrs := make([]float64, local+agg)
		for j := range attrs {
			attrs[j] = math.Round(rng.Float64()*1000) / 10
		}
		ts[i] = dataset.Tuple{
			Key:   fmt.Sprintf("g%d", rng.Intn(groups)),
			Band:  float64(rng.Intn(40)),
			Attrs: attrs,
		}
	}
	return ts
}

func mustRelation(t *testing.T, name string, local, agg int, ts []dataset.Tuple) *dataset.Relation {
	t.Helper()
	rel, err := dataset.New(name, local, agg, ts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func samePairs(t *testing.T, label string, got, want []join.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d\n got=%v\nwant=%v", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Left != w.Left || g.Right != w.Right {
			t.Fatalf("%s: pair[%d] = (%d,%d), want (%d,%d)", label, i, g.Left, g.Right, w.Left, w.Right)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("%s: pair[%d] has %d attrs, want %d", label, i, len(g.Attrs), len(w.Attrs))
		}
		for j := range w.Attrs {
			if g.Attrs[j] != w.Attrs[j] {
				t.Fatalf("%s: pair[%d].attrs[%d] = %v, want %v", label, i, j, g.Attrs[j], w.Attrs[j])
			}
		}
	}
}

// TestShardedMatchesSimulator is the oracle triangle: for every shard
// count, condition, and aggregator, the real cluster's answer must be
// byte-identical to the in-process simulator's (distributed.Run over the
// same node count) and to a single-node service over the same data.
func TestShardedMatchesSimulator(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups = 2, 1, 6
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + shards)))
			t1 := genTuples(rng, 40, local, agg, groups)
			t2 := genTuples(rng, 45, local, agg, groups)

			c := newCluster(t, shards)
			if _, err := c.gw.Register(ctx, "r1", local, agg, t1); err != nil {
				t.Fatal(err)
			}
			if _, err := c.gw.Register(ctx, "r2", local, agg, t2); err != nil {
				t.Fatal(err)
			}
			mirror := newMirror(t)
			if _, err := mirror.Register("r1", mustRelation(t, "r1", local, agg, t1)); err != nil {
				t.Fatal(err)
			}
			if _, err := mirror.Register("r2", mustRelation(t, "r2", local, agg, t2)); err != nil {
				t.Fatal(err)
			}

			// Non-equality conditions co-locate everything, so they are
			// only shardable at one node; multi-shard runs cover equality.
			conds := []string{"eq"}
			if shards == 1 {
				conds = []string{"eq", "cross", "lt", "le", "gt", "ge"}
			}
			d1, d2 := local+agg, local+agg
			kmin, width := max(d1, d2)+1, local+local+agg
			for _, cond := range conds {
				for _, aggName := range []string{"sum", "max"} {
					for k := kmin; k <= width; k++ {
						label := fmt.Sprintf("%s/%s/k=%d", cond, aggName, k)
						req := service.QueryRequest{
							R1: "r1", R2: "r2", K: k, Join: cond, Agg: aggName,
						}
						gresp, err := c.gw.Query(ctx, req)
						if err != nil {
							t.Fatalf("%s: gateway: %v", label, err)
						}

						// Oracle 1: single-node service, same request.
						mresp, err := mirror.Query(ctx, req)
						if err != nil {
							t.Fatalf("%s: mirror: %v", label, err)
						}
						samePairs(t, label+" vs single-node", gresp.Skyline, mresp.Skyline)

						// Oracle 2: the in-process simulator at the same
						// node count.
						jcond, err := join.ParseCondition(cond)
						if err != nil {
							t.Fatal(err)
						}
						jagg, err := join.ParseAggregator(aggName)
						if err != nil {
							t.Fatal(err)
						}
						q := core.Query{
							R1:   mustRelation(t, "r1", local, agg, t1),
							R2:   mustRelation(t, "r2", local, agg, t2),
							Spec: join.Spec{Cond: jcond, Agg: jagg},
							K:    k,
						}
						sim, err := distributed.Run(q, shards)
						if err != nil {
							t.Fatalf("%s: simulator: %v", label, err)
						}
						samePairs(t, label+" vs simulator", gresp.Skyline, sim.Skyline)

						// One coordinator behind both transports: the same
						// candidates, messages and floats. A single shard
						// ships nothing; message counts come in pairs.
						gd, sd := gresp.Dist, sim.Stats
						if !slices.Equal(gd.CandidatesPerNode, sd.CandidatesPerNode) ||
							gd.MessagesSent != sd.MessagesSent || gd.FloatsShipped != sd.FloatsShipped {
							t.Fatalf("%s: gateway traffic %v candidates, %d msgs, %d floats; simulator %v, %d, %d", label,
								gd.CandidatesPerNode, gd.MessagesSent, gd.FloatsShipped, sd.CandidatesPerNode, sd.MessagesSent, sd.FloatsShipped)
						}
						if shards == 1 && (gresp.Dist.MessagesSent != 0 || gresp.Dist.FloatsShipped != 0) {
							t.Fatalf("%s: single shard shipped %d msgs / %d floats",
								label, gresp.Dist.MessagesSent, gresp.Dist.FloatsShipped)
						}
						if gresp.Dist.MessagesSent%2 != 0 {
							t.Fatalf("%s: odd message count %d", label, gresp.Dist.MessagesSent)
						}
					}
				}
			}
		})
	}
}

// TestGatewayMutationsMatchSingleNode replays a mixed insert/delete
// script through the gateway and a single-node mirror, checking after
// every batch that both report the same answer for both aggregator
// classes — the PR 8 mutation-oracle style, now across processes.
func TestGatewayMutationsMatchSingleNode(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups = 2, 1, 5
	rng := rand.New(rand.NewSource(412))
	t1 := genTuples(rng, 20, local, agg, groups)
	t2 := genTuples(rng, 20, local, agg, groups)

	c := newCluster(t, 2)
	mirror := newMirror(t)
	if _, err := c.gw.Register(ctx, "r1", local, agg, t1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, t2); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.Register("r1", mustRelation(t, "r1", local, agg, t1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.Register("r2", mustRelation(t, "r2", local, agg, t2)); err != nil {
		t.Fatal(err)
	}

	sizes := map[string]int{"r1": len(t1), "r2": len(t2)}
	check := func(step int) {
		t.Helper()
		for _, aggName := range []string{"sum", "max"} {
			req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: aggName}
			gresp, err := c.gw.Query(ctx, req)
			if err != nil {
				t.Fatalf("step %d %s: gateway: %v", step, aggName, err)
			}
			mresp, err := mirror.Query(ctx, req)
			if err != nil {
				t.Fatalf("step %d %s: mirror: %v", step, aggName, err)
			}
			samePairs(t, fmt.Sprintf("step %d %s", step, aggName), gresp.Skyline, mresp.Skyline)
		}
	}
	check(-1)

	for step := 0; step < 30; step++ {
		name := "r1"
		if rng.Intn(2) == 1 {
			name = "r2"
		}
		if rng.Intn(3) < 2 || sizes[name] < 6 {
			batch := genTuples(rng, 1+rng.Intn(4), local, agg, groups)
			gres, err := c.gw.InsertBatch(ctx, name, batch)
			if err != nil {
				t.Fatalf("step %d: gateway insert: %v", step, err)
			}
			if gres.ID != sizes[name] || gres.Count != len(batch) {
				t.Fatalf("step %d: insert geometry id=%d count=%d, want id=%d count=%d",
					step, gres.ID, gres.Count, sizes[name], len(batch))
			}
			if _, err := mirror.InsertBatch(name, batch); err != nil {
				t.Fatalf("step %d: mirror insert: %v", step, err)
			}
			sizes[name] += len(batch)
		} else {
			n := sizes[name]
			count := 1 + rng.Intn(3)
			ids := rng.Perm(n)[:count]
			if _, err := c.gw.DeleteBatch(ctx, name, ids); err != nil {
				t.Fatalf("step %d: gateway delete %v: %v", step, ids, err)
			}
			if _, err := mirror.DeleteBatch(name, ids); err != nil {
				t.Fatalf("step %d: mirror delete: %v", step, err)
			}
			sizes[name] -= count
		}
		check(step)
	}
}

// TestGatewayDrainAndRefill deletes every row a shard holds (the
// partition drains, the shard-side relation is unregistered) and then
// inserts rows that hash back to it (lazy re-registration) — the answer
// must track the single-node mirror throughout.
func TestGatewayDrainAndRefill(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(77))
	t1 := genTuples(rng, 16, local, agg, 4)
	t2 := genTuples(rng, 16, local, agg, 4)

	c := newCluster(t, 2)
	mirror := newMirror(t)
	for name, ts := range map[string][]dataset.Tuple{"r1": t1, "r2": t2} {
		if _, err := c.gw.Register(ctx, name, local, agg, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.Register(name, mustRelation(t, name, local, agg, ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Find the rows of r1 living on shard 1 and delete exactly those.
	var drain []int
	for i, tp := range t1 {
		if distributed.NodeOf(tp.Key, 2) == 1 {
			drain = append(drain, i)
		}
	}
	if len(drain) == 0 || len(drain) == len(t1) {
		t.Fatalf("seed does not split r1 across shards: %d/%d", len(drain), len(t1))
	}
	if _, err := c.gw.DeleteBatch(ctx, "r1", drain); err != nil {
		t.Fatalf("draining delete: %v", err)
	}
	if _, err := mirror.DeleteBatch("r1", drain); err != nil {
		t.Fatal(err)
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum"}
	gresp, err := c.gw.Query(ctx, req)
	if err != nil {
		t.Fatalf("after drain: %v", err)
	}
	mresp, err := mirror.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "after drain", gresp.Skyline, mresp.Skyline)

	// Refill: new tuples, some of which hash back to the drained shard.
	refill := genTuples(rng, 12, local, agg, 4)
	if _, err := c.gw.InsertBatch(ctx, "r1", refill); err != nil {
		t.Fatalf("refill insert: %v", err)
	}
	if _, err := mirror.InsertBatch("r1", refill); err != nil {
		t.Fatal(err)
	}
	gresp, err = c.gw.Query(ctx, req)
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	mresp, err = mirror.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "after refill", gresp.Skyline, mresp.Skyline)
}

// TestGatewayShardDown kills one shard process and checks the failure
// surfaces as ErrShardDown naming the dead shard — and as a 503 through
// the gateway's own HTTP surface.
func TestGatewayShardDown(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(31))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 30, local, agg, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 30, local, agg, 8)); err != nil {
		t.Fatal(err)
	}
	for _, rel := range c.gw.Relations() {
		for s, n := range rel.PerShard {
			if n == 0 {
				t.Fatalf("seed leaves shard %d empty for %s; pick a different seed", s, rel.Name)
			}
		}
	}
	gwsrv := httptest.NewServer(NewHandler(c.gw, 0))
	t.Cleanup(gwsrv.Close)

	c.servers[1].Close() // the outage

	_, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum"})
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("want ErrShardDown, got %v", err)
	}
	var de *DownError
	if !errors.As(err, &de) || de.Addr != c.urls[1] {
		t.Fatalf("error does not name the dead shard %s: %v", c.urls[1], err)
	}

	resp, err := http.Post(gwsrv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"r1":"r1","r2":"r2","k":4,"join":"eq","agg":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 from gateway surface, got %d", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, c.urls[1]) {
		t.Fatalf("503 body does not name the dead shard: %q", body.Error)
	}
}

// TestGatewayQueryDeadline: a query's timeout bounds both rounds, however
// many legs and retries they take, and a query that runs out of it is told
// so — a 504, like a single node's — rather than that a healthy shard is
// down. Both shards answer /v1/query and /v1/verify 80 ms late, so a
// two-round query needs more than 160 ms.
func TestGatewayQueryDeadline(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{SweepInterval: -1})
		t.Cleanup(func() { svc.Close() })
		inner := httpapi.NewHandler(svc, 0)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" || r.URL.Path == "/v1/verify" {
				time.Sleep(80 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	gw, err := New(ctx, urls, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	rng := rand.New(rand.NewSource(31)) // both relations on both shards, as in TestGatewayShardDown
	for _, name := range []string{"r1", "r2"} {
		if _, err := gw.Register(ctx, name, local, agg, genTuples(rng, 30, local, agg, 8)); err != nil {
			t.Fatal(err)
		}
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum", NoCache: true, Timeout: -1}
	if resp, err := gw.Query(ctx, req); err != nil || resp.Dist.MessagesSent == 0 {
		t.Fatalf("unbounded query: err %v; it must run round 2 for this test to mean anything", err)
	}

	req.Timeout = 100 * time.Millisecond
	if _, err := gw.Query(ctx, req); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrShardDown) {
		t.Fatalf("query past its timeout: got %v, want only context.DeadlineExceeded", err)
	}

	gwsrv := httptest.NewServer(NewHandler(gw, 0))
	t.Cleanup(gwsrv.Close)
	resp, err := http.Post(gwsrv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"r1":"r1","r2":"r2","k":4,"join":"eq","agg":"sum","no_cache":true,"timeout_ms":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	for _, u := range urls {
		if strings.Contains(string(body), strings.TrimPrefix(u, "http://")) {
			t.Fatalf("the 504 blames shard %s: %s", u, body)
		}
	}
}

// TestGatewayRetriesTransientReads: a shard that 500s once must not fail
// a read-only call (single retry), but must fail a mutation (which is
// not retried — it is not idempotent).
func TestGatewayRetriesTransientReads(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	svc := service.New(service.Config{SweepInterval: -1})
	t.Cleanup(func() { svc.Close() })
	inner := httpapi.NewHandler(svc, 0)
	var failQuery, failInsert atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" && failQuery.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/v1/insert" && failInsert.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	gw, err := New(ctx, []string{srv.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	rng := rand.New(rand.NewSource(5))
	if _, err := gw.Register(ctx, "r1", local, agg, genTuples(rng, 10, local, agg, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Register(ctx, "r2", local, agg, genTuples(rng, 10, local, agg, 3)); err != nil {
		t.Fatal(err)
	}

	failQuery.Store(true)
	if _, err := gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum"}); err != nil {
		t.Fatalf("read-only call not retried past a transient failure: %v", err)
	}

	failInsert.Store(true)
	_, err = gw.InsertBatch(ctx, "r1", genTuples(rng, 1, local, agg, 3))
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("mutation must surface the failure un-retried, got %v", err)
	}
}

// TestGatewayWatch subscribes through the gateway, mutates through the
// gateway, and checks the delta stream reconstructs the live answer.
func TestGatewayWatch(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(19))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 15, local, agg, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 15, local, agg, 4)); err != nil {
		t.Fatal(err)
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum"}
	w, err := c.gw.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	recv := func() service.WatchEvent {
		t.Helper()
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch closed early: %v", w.Err())
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for watch event")
		}
		panic("unreachable")
	}

	ev := recv()
	if ev.Seq != 0 || len(ev.Removed) != 0 {
		t.Fatalf("snapshot event malformed: %+v", ev)
	}
	answer := append([]join.Pair(nil), ev.Added...)

	apply := func(ev service.WatchEvent) {
		t.Helper()
		next := answer[:0:0]
		for _, p := range answer {
			removed := false
			for _, r := range ev.Removed {
				if r.Left == p.Left && r.Right == p.Right {
					removed = true
					break
				}
			}
			if !removed {
				next = append(next, p)
			}
		}
		next = append(next, ev.Added...)
		join.SortPairs(next)
		answer = next
	}

	var seq uint64
	for step := 0; step < 6; step++ {
		if step%2 == 0 {
			if _, err := c.gw.InsertBatch(ctx, "r1", genTuples(rng, 2, local, agg, 4)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := c.gw.DeleteBatch(ctx, "r2", []int{rng.Intn(10)}); err != nil {
				t.Fatal(err)
			}
		}
		ev := recv()
		seq++
		if ev.Seq != seq {
			t.Fatalf("step %d: seq %d, want %d", step, ev.Seq, seq)
		}
		apply(ev)
		cur, err := c.gw.Query(ctx, service.QueryRequest{
			R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: "sum", NoCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("step %d: replayed watch deltas", step), answer, cur.Skyline)
	}
}

// TestGatewayErrors covers the request-validation and topology error
// taxonomy.
func TestGatewayErrors(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(8))
	c := newCluster(t, 2)
	ts := genTuples(rng, 12, local, agg, 4)
	if _, err := c.gw.Register(ctx, "r1", local, agg, ts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 12, local, agg, 4)); err != nil {
		t.Fatal(err)
	}

	if _, err := c.gw.Register(ctx, "r1", local, agg, ts); !errors.Is(err, service.ErrDuplicateRelation) {
		t.Fatalf("duplicate register: %v", err)
	}
	if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "nope", R2: "r2", K: 4}); !errors.Is(err, service.ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 99}); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("bad k: %v", err)
	}
	if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "cross"}); !errors.Is(err, distributed.ErrNotShardable) {
		t.Fatalf("cross join on 2 shards: %v", err)
	}
	all := make([]int, 12)
	for i := range all {
		all[i] = i
	}
	if _, err := c.gw.DeleteBatch(ctx, "r1", all); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("delete-all: %v", err)
	}
	if _, err := c.gw.Watch(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "max"}); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("non-strict watch: %v", err)
	}

	// The wire surface: windows are rejected in gateway mode.
	gwsrv := httptest.NewServer(NewHandler(c.gw, 0))
	t.Cleanup(gwsrv.Close)
	resp, err := http.Post(gwsrv.URL+"/v1/relations", "application/json",
		strings.NewReader(`{"name":"w1","local":1,"agg":0,"window_ms":5000,"tuples":[{"key":"a","attrs":[1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window_ms through gateway: want 400, got %d", resp.StatusCode)
	}

	// A non-shardable query is the client's mistake, not a server fault.
	resp, err = http.Post(gwsrv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"r1":"r1","r2":"r2","k":4,"join":"cross","no_cache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-shardable through gateway: want 400, got %d", resp.StatusCode)
	}

	// Unregister ends watches with ErrUnknownRelation and frees the name.
	w, err := c.gw.Watch(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	<-w.Events() // snapshot
	if err := c.gw.Unregister(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	for range w.Events() {
	}
	if !errors.Is(w.Err(), service.ErrUnknownRelation) {
		t.Fatalf("watch after unregister: %v", w.Err())
	}
	if err := c.gw.Unregister(ctx, "r1"); !errors.Is(err, service.ErrUnknownRelation) {
		t.Fatalf("double unregister: %v", err)
	}
	if _, err := c.gw.Register(ctx, "r1", local, agg, ts); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

// TestGatewayCloseDrains: Close must refuse new work and wait for
// in-flight scatter-gathers.
func TestGatewayCloseDrains(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(3))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 10, local, agg, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 10, local, agg, 3)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum", NoCache: true})
			done <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.gw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight query neither drained nor refused cleanly: %v", err)
		}
	}
	if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
}

// TestGatewayStats checks the promoted round-2 counters and the cluster
// fan-out snapshot.
func TestGatewayStats(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(44))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 30, local, agg, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 30, local, agg, 8)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	st := c.gw.Stats(ctx)
	if st.Queries != 1 {
		t.Errorf("queries = %d, want 1", st.Queries)
	}
	if uint64(resp.Dist.MessagesSent) != st.R2Messages {
		t.Errorf("gateway counter %d != query stats %d", st.R2Messages, resp.Dist.MessagesSent)
	}
	if uint64(resp.Dist.FloatsShipped) != st.R2Floats {
		t.Errorf("floats counter %d != query stats %d", st.R2Floats, resp.Dist.FloatsShipped)
	}
	if resp.Dist.MessagesSent == 0 {
		t.Error("two shards with shared groups must exchange candidates")
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats cover %d shards, want 2", len(st.Shards))
	}
	for i, ss := range st.Shards {
		if ss.Error != "" || ss.Stats == nil {
			t.Errorf("shard %d stats missing: %+v", i, ss)
		} else if ss.Stats.Verifies == 0 {
			t.Errorf("shard %d served no verifies despite round 2", i)
		}
	}
}

// TestGatewayWarmRepeat: a repeated identical query must be answered
// from the shards' answer caches — reported via the coldest-wins source.
func TestGatewayWarmRepeat(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(21))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 30, local, agg, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 30, local, agg, 6)); err != nil {
		t.Fatal(err)
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum"}
	cold, err := c.gw.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Source != service.SourceComputed {
		t.Fatalf("first query source %q, want computed", cold.Source)
	}
	warm, err := c.gw.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source == service.SourceComputed {
		t.Fatalf("repeat query recomputed (source %q)", warm.Source)
	}
	samePairs(t, "warm repeat", warm.Skyline, cold.Skyline)
}

// TestGatewayNoCacheLeavesNoStandingAnswer is the gateway twin of the
// single node's rule: a NoCache query neither reads nor writes an answer
// store, the gateway's or a shard's (round 1 forwards the flag), so a
// later insert finds nothing to maintain anywhere. A watch ignores the
// flag: it subscribes to the standing answer.
func TestGatewayNoCacheLeavesNoStandingAnswer(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(22))
	c := newCluster(t, 2)
	if _, err := c.gw.Register(ctx, "r1", local, agg, genTuples(rng, 30, local, agg, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.Register(ctx, "r2", local, agg, genTuples(rng, 30, local, agg, 6)); err != nil {
		t.Fatal(err)
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum", NoCache: true}
	if _, err := c.gw.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.gw.InsertBatch(ctx, "r1", genTuples(rng, 1, local, agg, 6)); err != nil {
		t.Fatal(err)
	}
	for i, svc := range c.svcs {
		if st := svc.Stats(); st.CacheEntries != 0 || st.MaintainedEntries != 0 {
			t.Errorf("shard %d holds %d answers (%d maintained) after a NoCache query, want none", i, st.CacheEntries, st.MaintainedEntries)
		}
	}
	if n, _, _, _ := c.gw.answers.Stats(); n != 0 {
		t.Errorf("the gateway's store holds %d answers after a NoCache query, want none", n)
	}

	w, err := c.gw.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n, _, watches, _ := c.gw.answers.Stats(); n != 1 || watches != 1 {
		t.Errorf("a NoCache watch left %d answers with %d watches in the gateway's store, want 1 and 1", n, watches)
	}
}

// TestGatewayUnregisterPurgesAnswerCache pins the stale-answer bug: a
// re-registered relation restarts at placement version 1, so an answer
// cached before the Unregister would pass the version check and be served
// over the new rows. Checked against the single-node mirror, which purges
// its cache on Unregister.
func TestGatewayUnregisterPurgesAnswerCache(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups = 2, 1, 4
	rng := rand.New(rand.NewSource(21))
	t1 := genTuples(rng, 30, local, agg, groups)
	t2 := genTuples(rng, 30, local, agg, groups)
	t1b := genTuples(rng, 30, local, agg, groups)

	c := newCluster(t, 2)
	mirror := newMirror(t)
	register := func(name string, ts []dataset.Tuple) {
		t.Helper()
		if _, err := c.gw.Register(ctx, name, local, agg, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.Register(name, mustRelation(t, name, local, agg, ts)); err != nil {
			t.Fatal(err)
		}
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4}
	check := func(label string) {
		t.Helper()
		got, err := c.gw.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mirror.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, label, got.Skyline, want.Skyline)
	}

	register("r1", t1)
	register("r2", t2)
	check("first registration")
	check("first registration, warm") // the gateway now holds a cached answer at versions [1 1]

	if err := c.gw.Unregister(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Unregister("r1"); err != nil {
		t.Fatal(err)
	}
	register("r1", t1b) // different rows, placement version 1 again
	check("after re-registration")
}

// registerBoth registers the same tuples on the cluster and its mirror.
func registerBoth(t *testing.T, c *cluster, mirror *service.Service, name string, local, agg int, ts []dataset.Tuple) {
	t.Helper()
	if _, err := c.gw.Register(context.Background(), name, local, agg, ts); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.Register(name, mustRelation(t, name, local, agg, ts)); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayStoreUnderPressure forces the gateway's answer store down to
// two unpinned answers and checks it behaves as the service's does (it is
// the same type): least recently used answers go first and recompute
// correctly, while a watched answer sits outside the budget — it survives
// any number of other queries and keeps delivering, across a mixed
// insert/delete schedule, exactly DiffPairs(previous answer, next), with
// every answer checked against the single-node mirror.
func TestGatewayStoreUnderPressure(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups = 2, 1, 5
	rng := rand.New(rand.NewSource(1507))
	c := newCluster(t, 2)
	c.gw.answers = service.NewAnswerStore(2) // before first use
	mirror := newMirror(t)
	sizes := map[string]int{"r1": 24, "r2": 24}
	registerBoth(t, c, mirror, "r1", local, agg, genTuples(rng, sizes["r1"], local, agg, groups))
	registerBoth(t, c, mirror, "r2", local, agg, genTuples(rng, sizes["r2"], local, agg, groups))

	// ask answers through the gateway, checks the answer against the
	// mirror, and reports whether the gateway's store served it (the
	// response's source cannot tell: a gateway miss the shards answer from
	// their own caches reads "cached" too).
	ask := func(k int, aggName string) (hit bool) {
		t.Helper()
		req := service.QueryRequest{R1: "r1", R2: "r2", K: k, Agg: aggName}
		hits := c.gw.cacheHits.Load()
		got, err := c.gw.Query(ctx, req)
		if err != nil {
			t.Fatalf("k=%d %s: gateway: %v", k, aggName, err)
		}
		want, err := mirror.Query(ctx, req)
		if err != nil {
			t.Fatalf("k=%d %s: mirror: %v", k, aggName, err)
		}
		samePairs(t, fmt.Sprintf("k=%d %s", k, aggName), got.Skyline, want.Skyline)
		return c.gw.cacheHits.Load() > hits
	}

	ask(4, "sum")
	ask(5, "sum")
	if !ask(4, "sum") {
		t.Fatal("repeat query within capacity missed")
	}
	ask(4, "max") // a third answer: the least recently used one, k=5, goes
	if !ask(4, "sum") {
		t.Fatal("the most recently used answer was evicted")
	}
	if ask(5, "sum") {
		t.Fatal("the least recently used answer survived past capacity")
	}
	if _, _, _, evictions := c.gw.answers.Stats(); evictions != 2 {
		t.Fatalf("%d evictions, want 2 (k=5 sum, then k=4 max)", evictions)
	}

	wreq := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Agg: "sum"}
	w, err := c.gw.Watch(ctx, wreq)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recv := func() service.WatchEvent {
		t.Helper()
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch closed early: %v", w.Err())
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for watch event")
		}
		panic("unreachable")
	}
	current := func() []join.Pair {
		t.Helper()
		resp, err := mirror.Query(ctx, wreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Skyline
	}
	prev := current()
	samePairs(t, "snapshot", recv().Added, prev)

	others := []struct {
		k   int
		agg string
	}{{5, "sum"}, {4, "max"}, {5, "max"}, {4, "min"}, {5, "min"}}
	for step := 0; step < 12; step++ {
		for _, o := range others { // five answers through two slots
			ask(o.k, o.agg)
		}
		if !ask(4, "sum") {
			t.Fatalf("step %d: the watched answer was evicted or went stale", step)
		}
		if entries, _, watches, _ := c.gw.answers.Stats(); entries != 3 || watches != 1 {
			t.Fatalf("step %d: %d answers / %d subscribers standing, want 2 unpinned + 1 watched", step, entries, watches)
		}
		name := []string{"r1", "r2"}[rng.Intn(2)]
		if step%3 != 2 {
			batch := genTuples(rng, 1+rng.Intn(4), local, agg, groups)
			if _, err := c.gw.InsertBatch(ctx, name, batch); err != nil {
				t.Fatalf("step %d: gateway insert: %v", step, err)
			}
			if _, err := mirror.InsertBatch(name, batch); err != nil {
				t.Fatalf("step %d: mirror insert: %v", step, err)
			}
			sizes[name] += len(batch)
		} else {
			ids := rng.Perm(sizes[name])[:1+rng.Intn(3)]
			if _, err := c.gw.DeleteBatch(ctx, name, ids); err != nil {
				t.Fatalf("step %d: gateway delete %v: %v", step, ids, err)
			}
			if _, err := mirror.DeleteBatch(name, ids); err != nil {
				t.Fatalf("step %d: mirror delete: %v", step, err)
			}
			sizes[name] -= len(ids)
		}
		ev, next := recv(), current()
		added, removed := service.DiffPairs(prev, next)
		if ev.Seq != uint64(step+1) {
			t.Fatalf("step %d: seq %d: not one delta per batch", step, ev.Seq)
		}
		samePairs(t, fmt.Sprintf("step %d added", step), ev.Added, added)
		samePairs(t, fmt.Sprintf("step %d removed", step), ev.Removed, removed)
		prev = next
	}
}

// TestGatewayWarmHitAllocs pins a gateway store hit at exactly two
// allocations (BENCH_pr10.json's ShardedQuery/gateway-warm figure, which
// the retired bench-compare gate used to watch).
func TestGatewayWarmHitAllocs(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(34))
	c := newCluster(t, 2)
	for _, name := range []string{"r1", "r2"} {
		if _, err := c.gw.Register(ctx, name, local, agg, genTuples(rng, 20, local, agg, 4)); err != nil {
			t.Fatal(err)
		}
	}
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4}
	if _, err := c.gw.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	hits := c.gw.cacheHits.Load()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.gw.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.gw.cacheHits.Load() - hits; got != 201 { // AllocsPerRun warms up once
		t.Fatalf("%d of 201 queries hit the gateway's store", got)
	}
	if allocs != 2 {
		t.Fatalf("a warm gateway hit costs %v allocations, want exactly 2", allocs)
	}
}

// TestGatewayWatchedAnswerIsTheCachedAnswer: a gateway query that is both
// cached and watched is one store entry; its subscribers are what
// Stats().Watches counts and what keeps it out of the eviction budget; and
// the last one leaving returns it to the LRU instead of dropping it.
func TestGatewayWatchedAnswerIsTheCachedAnswer(t *testing.T) {
	ctx := context.Background()
	const local, agg = 2, 1
	rng := rand.New(rand.NewSource(33))
	c := newCluster(t, 2)
	c.gw.answers = service.NewAnswerStore(1) // before first use
	for _, name := range []string{"r1", "r2"} {
		if _, err := c.gw.Register(ctx, name, local, agg, genTuples(rng, 20, local, agg, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// hit queries through the gateway and reports whether its store served
	// the answer (a miss the shards answer from their own caches reads
	// source "cached" too, so the response cannot tell).
	hit := func(k int) bool {
		t.Helper()
		hits := c.gw.cacheHits.Load()
		if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: k}); err != nil {
			t.Fatal(err)
		}
		return c.gw.cacheHits.Load() > hits
	}
	standing := func(label string, wantEntries, wantWatches int) {
		t.Helper()
		entries, _, watches, _ := c.gw.answers.Stats()
		if entries != wantEntries || watches != wantWatches {
			t.Fatalf("%s: %d answers / %d subscribers standing, want %d / %d", label, entries, watches, wantEntries, wantWatches)
		}
		if got := c.gw.Stats(ctx).Watches; got != wantWatches {
			t.Fatalf("%s: Stats().Watches = %d, want %d", label, got, wantWatches)
		}
	}

	hit(4) // cached, not yet watched
	req := service.QueryRequest{R1: "r1", R2: "r2", K: 4}
	w1, err := c.gw.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.gw.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	standing("cached and watched twice", 1, 2)
	if !hit(4) {
		t.Fatal("query of the watched answer missed the store")
	}
	hit(5) // fills the one unpinned slot; the watched answer is outside it
	standing("beside one unwatched answer", 2, 2)

	w1.Close()
	standing("one subscriber left", 2, 1)
	w2.Close()
	// Back in the LRU at the front. Unsubscribing never evicts (the store
	// removes answers only under the committer's lock), so the list sits one
	// over its budget until the next stored answer trims it.
	standing("unwatched again", 2, 0)
	if !hit(4) {
		t.Fatal("last unsubscribe dropped the answer")
	}
	// ...and as an ordinary cached answer it is evictable again: a third
	// key (k has only two admissible values here, so a self-join) is stored.
	if _, err := c.gw.Query(ctx, service.QueryRequest{R1: "r1", R2: "r1", K: 4}); err != nil {
		t.Fatal(err)
	}
	standing("trimmed by the next store", 1, 0)
	if hit(4) {
		t.Fatal("the formerly watched answer is still pinned")
	}
}

// TestGatewayHitRepliesFollowCommits is the gateway's side of httpapi's
// TestHitRepliesFollowCommits: hits through the gateway's handler on a
// watched answer — the one the gateway carries across its commits, by
// re-running both rounds and publishing — while inserts advance it. Every
// reply is laid out as a single node's, and its skyline is a from-scratch
// core.Exec recompute at the placement versions it names.
func TestGatewayHitRepliesFollowCommits(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups, n, batch, batches, readers, k = 2, 1, 3, 30, 3, 10, 2, 5
	rng := rand.New(rand.NewSource(41))
	base1, base2 := genTuples(rng, n, local, agg, groups), genTuples(rng, n, local, agg, groups)
	inserts := genTuples(rng, batch*batches, local, agg, groups)
	c := newCluster(t, 2)
	v1, err := c.gw.Register(ctx, "r1", local, agg, base1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.gw.Register(ctx, "r2", local, agg, base2)
	if err != nil {
		t.Fatal(err)
	}

	// The answer at every version the commits will move through.
	q := core.Query{
		R1: mustRelation(t, "r1", local, agg, base1), R2: mustRelation(t, "r2", local, agg, base2),
		Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: k,
	}
	want := map[[2]uint64][]join.Pair{}
	moves := 0
	for b := 0; b <= batches; b++ {
		if b > 0 {
			if _, err := q.R1.AppendBatch(inserts[(b-1)*batch : b*batch]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := core.Exec(ctx, q, core.ExecOptions{Algorithm: core.Naive})
		if err != nil {
			t.Fatal(err)
		}
		want[[2]uint64{v1 + uint64(b), v2}] = res.Skyline
		if added, removed := service.DiffPairs(want[[2]uint64{v1 + uint64(b) - 1, v2}], res.Skyline); b > 0 && len(added)+len(removed) > 0 {
			moves++
		}
	}
	if moves < batches/2 {
		t.Fatalf("the schedule moves the answer only %d times in %d commits; the test needs it to move", moves, batches)
	}

	w, err := c.gw.Watch(ctx, service.QueryRequest{R1: "r1", R2: "r2", K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := NewHandler(c.gw, 0)
	query := fmt.Sprintf(`{"r1":"r1","r2":"r2","k":%d}`, k)
	hits := c.gw.cacheHits.Load()

	var served atomic.Int64
	var stop, failed atomic.Bool
	fail := func(format string, args ...any) {
		if !failed.Swap(true) {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !failed.Load() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)))
				body := rec.Body.Bytes()
				if err := replyLayout(rec.Header(), body); rec.Code != http.StatusOK || err != nil {
					fail("status %d, %v: %.80s", rec.Code, err, body)
					return
				}
				var out httpapi.QueryResponseJSON
				if err := json.Unmarshal(body, &out); err != nil {
					fail("%v", err)
					return
				}
				exp, ok := want[out.Versions]
				if !ok {
					fail("reply at versions %v, which no commit made", out.Versions)
					return
				}
				got := make([]join.Pair, len(out.Skyline))
				for i, p := range out.Skyline {
					got[i] = join.Pair{Left: p.Left, Right: p.Right, Attrs: p.Attrs}
				}
				if !slices.EqualFunc(got, exp, func(a, b join.Pair) bool {
					return a.Left == b.Left && a.Right == b.Right && slices.Equal(a.Attrs, b.Attrs)
				}) {
					fail("reply at versions %v: %d pairs, want the recompute's %d", out.Versions, len(got), len(exp))
					return
				}
				served.Add(1)
			}
		}()
	}
	for b := 0; b < batches && !failed.Load(); b++ {
		res, err := c.gw.InsertBatch(ctx, "r1", inserts[b*batch:(b+1)*batch])
		if err != nil {
			fail("batch %d: %v", b, err)
			break
		}
		if res.Version != v1+uint64(b)+1 {
			fail("batch %d: version %d, want %d", b, res.Version, v1+uint64(b)+1)
			break
		}
		// Let hits land on this version before the next commit.
		for start := served.Load(); served.Load() < start+2*readers && !failed.Load(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
	if got := c.gw.cacheHits.Load() - hits; got < batches {
		t.Fatalf("%d of %d replies hit the gateway's store; the hits did not follow the commits", got, served.Load())
	}
}

// replyLayout checks what the bench client and every decoder rely on: a
// query reply opens with its skyline array, "count" follows the array at
// once, one newline ends it, and Content-Length is its length.
func replyLayout(header http.Header, body []byte) error {
	if cl := header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return fmt.Errorf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	rest, ok := bytes.CutPrefix(body, []byte(`{"skyline":`))
	if !ok || !bytes.HasSuffix(body, []byte("}\n")) || bytes.Count(body, []byte("\n")) != 1 {
		return errors.New("reply does not open with the skyline or end with one newline")
	}
	var arr json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(rest)).Decode(&arr); err != nil {
		return err
	}
	if !bytes.HasPrefix(rest[len(arr)-1:], []byte(`],"count":`)) {
		return errors.New(`the skyline array is not followed by "count"`)
	}
	return nil
}
