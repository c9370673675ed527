package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// durableShard is one shard "process" with a durable data directory and a
// fixed listen address, so a crashed incarnation can be reborn on the
// same address and the gateway's shard list stays valid across it.
type durableShard struct {
	dir  string
	addr string
	svc  *service.Service
	srv  *httptest.Server
}

func startDurableShard(t *testing.T, dir, addr string) *durableShard {
	t.Helper()
	svc, err := service.Open(service.Config{SweepInterval: -1, CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatalf("opening shard store %s: %v", dir, err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listening on %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(httpapi.NewHandler(svc, 0))
	srv.Listener = l
	srv.Start()
	return &durableShard{dir: dir, addr: l.Addr().String(), svc: svc, srv: srv}
}

// crash kills the shard the way kill -9 would: the HTTP server vanishes
// mid-flight and the service instance is abandoned without Close — no
// final checkpoint, no WAL fsync beyond what acknowledged mutations
// already forced.
func (ds *durableShard) crash() {
	ds.srv.CloseClientConnections()
	ds.srv.Close()
	ds.svc = nil
	ds.srv = nil
}

// TestGatewayShardCrashRecovery: both shards of a live cluster are hard-
// killed and reborn from their data directories on the same addresses.
// The gateway — whose placement mapping assumes shard-local row numbering
// and versions survive — keeps answering, and every post-recovery answer
// stays byte-identical to a single-node mirror that never crashed.
// Recovery replaying mutations through the shards' normal paths is what
// makes the numbering assumption hold.
func TestGatewayShardCrashRecovery(t *testing.T) {
	ctx := context.Background()
	const local, agg, groups = 2, 1, 5
	rng := rand.New(rand.NewSource(711))

	shards := []*durableShard{
		startDurableShard(t, t.TempDir(), "127.0.0.1:0"),
		startDurableShard(t, t.TempDir(), "127.0.0.1:0"),
	}
	defer func() {
		for _, ds := range shards {
			if ds.srv != nil {
				ds.srv.Close()
			}
			if ds.svc != nil {
				ds.svc.Close()
			}
		}
	}()
	urls := []string{"http://" + shards[0].addr, "http://" + shards[1].addr}
	// Fresh connection per request: a pooled connection into the crashed
	// incarnation would EOF the first post-restart write, and write
	// retries are deliberately not the gateway's job. This test is about
	// state recovery, not connection-pool repair.
	gw, err := New(ctx, urls, Config{
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	mirror := newMirror(t)

	t1 := genTuples(rng, 24, local, agg, groups)
	t2 := genTuples(rng, 24, local, agg, groups)
	for name, ts := range map[string][]dataset.Tuple{"r1": t1, "r2": t2} {
		if _, err := gw.Register(ctx, name, local, agg, ts); err != nil {
			t.Fatalf("gateway register %s: %v", name, err)
		}
		if _, err := mirror.Register(name, mustRelation(t, name, local, agg, ts)); err != nil {
			t.Fatalf("mirror register %s: %v", name, err)
		}
	}

	sizes := map[string]int{"r1": len(t1), "r2": len(t2)}
	mutate := func(step int) {
		t.Helper()
		name := "r1"
		if rng.Intn(2) == 1 {
			name = "r2"
		}
		if rng.Intn(3) < 2 || sizes[name] < 6 {
			batch := genTuples(rng, 1+rng.Intn(4), local, agg, groups)
			if _, err := gw.InsertBatch(ctx, name, batch); err != nil {
				t.Fatalf("step %d: gateway insert: %v", step, err)
			}
			if _, err := mirror.InsertBatch(name, batch); err != nil {
				t.Fatalf("step %d: mirror insert: %v", step, err)
			}
			sizes[name] += len(batch)
		} else {
			count := 1 + rng.Intn(3)
			ids := rng.Perm(sizes[name])[:count]
			if _, err := gw.DeleteBatch(ctx, name, ids); err != nil {
				t.Fatalf("step %d: gateway delete %v: %v", step, ids, err)
			}
			if _, err := mirror.DeleteBatch(name, ids); err != nil {
				t.Fatalf("step %d: mirror delete: %v", step, err)
			}
			sizes[name] -= count
		}
	}
	check := func(label string) {
		t.Helper()
		for _, aggName := range []string{"sum", "max"} {
			req := service.QueryRequest{R1: "r1", R2: "r2", K: 4, Join: "eq", Agg: aggName}
			gresp, err := gw.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s %s: gateway: %v", label, aggName, err)
			}
			mresp, err := mirror.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s %s: mirror: %v", label, aggName, err)
			}
			samePairs(t, fmt.Sprintf("%s %s", label, aggName), gresp.Skyline, mresp.Skyline)
		}
	}

	for step := 0; step < 10; step++ {
		mutate(step)
	}
	check("pre-crash")

	// Hard-kill both shards, then rebirth each from its data directory on
	// the same address. The gateway is never told.
	for _, ds := range shards {
		ds.crash()
	}
	for i, ds := range shards {
		shards[i] = startDurableShard(t, ds.dir, ds.addr)
	}
	check("post-recovery")

	// The cluster keeps taking mutations after recovery: the gateway's row
	// mapping still matches the shards' recovered numbering.
	for step := 10; step < 25; step++ {
		mutate(step)
	}
	check("post-recovery mutations")
}
