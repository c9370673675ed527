package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/bench/loadgen"
	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// tracePlan sizes a traced run at 26 seconds, BENCHMARK.json's run_seconds:
// after the warm-up round, untraced rounds (the baseline tracing overhead is
// measured against), then traced rounds, each replayed on the twins. The counts are fixed — a traced
// run is sized in rounds, not seconds, so the counts it reports repeat
// exactly — and scale with -seconds.
var tracePlan = map[string]struct{ untraced, traced int }{
	"adhoc":     {3, 4},
	"dashboard": {6, 9},
	"ingest":    {10, 16},
	"cluster":   {2, 3},
}

func traceRounds(name string, seconds float64) (untraced, traced int) {
	p := tracePlan[name]
	scale := func(n int) int { return max(1, int(float64(n)*seconds/26+0.5)) }
	return scale(p.untraced), scale(p.traced)
}

// largeClass is each workload's large-answer query class; the latency
// budget is drawn up for the other, dominant one.
var largeClass = map[string]string{
	"adhoc": "q:ind.k11", "dashboard": "q:ind.k11", "cluster": "q:wide.k11",
}

// smallReplyBytes bounds the replies transport time is measured on: past a
// socket buffer or two the round trip is the handler streaming the body,
// not the transport.
const smallReplyBytes = 16 << 10

// runTraced is the per-layer pass. It assembles the same stack in process
// from the layers' public constructors, wraps every handler it owns in a
// span-recording middleware, and replays every op on seed-identical twins,
// one public call at a time, for the layers below the service.
func runTraced(cfg runConfig, outDir string) (*runResult, error) {
	if cfg.workload == "cluster" {
		return runTracedCluster(cfg, outDir)
	}
	tr, obs := newTracer(), newObservations()
	durable := cfg.workload == "ingest"
	// The served stack checkpoints in the background, as the real deployment
	// does. The twin does not: its directory is copied between rounds for the
	// recovery timing, and a checkpoint renaming the manifest and sweeping
	// segments under the copy would tear it. It is checkpointed by hand
	// after each copy instead.
	served, quiet := service.Config{CheckpointInterval: cfg.checkpoint}, service.Config{CheckpointInterval: -1}
	open := func(svcCfg service.Config, dir string) (*service.Service, error) {
		if durable {
			return service.Open(svcCfg, dir)
		}
		return service.New(svcCfg), nil
	}
	dirA, dirB := filepath.Join(cfg.workDir, "a"), filepath.Join(cfg.workDir, "b")
	svcA, err := open(served, dirA)
	if err != nil {
		return nil, err
	}
	defer svcA.Close()
	srv := httptest.NewServer(tr.middleware("handler", httpapi.NewHandler(svcA, service.DefaultRequestTimeout)))
	defer srv.Close()
	s, err := newSession(cfg.workload, cfg.seed, cfg.sizes, srv.URL)
	if err != nil {
		return nil, err
	}
	if err := s.register(); err != nil {
		return nil, err
	}

	svcB, err := open(quiet, dirB)
	if err != nil {
		return nil, err
	}
	defer svcB.Close()
	rawDir := ""
	if durable {
		rawDir = filepath.Join(cfg.workDir, "c")
	}
	raw, err := newRawTwin(tr, obs, s.gen, rawDir)
	if err != nil {
		return nil, err
	}
	defer raw.close()
	twin := &directTwin{tr: tr, obs: obs, svc: svcB, raw: raw}
	if err := twin.register(s.gen); err != nil {
		return nil, err
	}

	res := &runResult{Metrics: make(map[string]float64)}
	run := &tracedRun{tr: tr, obs: obs, s: s, twin: twin, res: res}
	untraced, traced := traceRounds(cfg.workload, cfg.seconds)
	// A layer's self time is a difference of spans, which only holds when
	// nothing else contends. Ingest's two writers queue behind each other's
	// commits, so its budget is drawn up with their ops taking turns on one
	// connection; a phase of its own — the writers concurrent, as the
	// untraced run has them — measures what the contention adds and what it
	// does to the answer cache.
	phases := []tracePhase{{rounds: 1, warm: true}, {rounds: untraced}, {rounds: traced, traced: true, counters: true}}
	if durable {
		phases = []tracePhase{{rounds: 1, warm: true}, {rounds: untraced, counters: true},
			{rounds: untraced, serial: true}, {rounds: traced, traced: true, serial: true}}
	}
	var before, after service.Stats
	for _, ph := range phases {
		if ph.counters {
			before = svcA.Stats()
		}
		for i := 0; i < ph.rounds; i++ {
			if err := run.round(ph); err != nil {
				return nil, err
			}
			if ph.traced {
				if err := raw.perRound(s.round); err != nil {
					return nil, err
				}
				if durable {
					if err := recoverOnce(tr, obs, quiet, dirB, filepath.Join(cfg.workDir, fmt.Sprintf("recover-%d", s.round))); err != nil {
						return nil, err
					}
				}
			}
			// The twin's checkpoint (nothing to do in memory): every recovery
			// replays one round's WAL tail.
			if err := svcB.Checkpoint(); err != nil {
				return nil, err
			}
		}
		if ph.counters {
			after = svcA.Stats()
		}
	}
	tr.on.Store(false)

	if res.Oracle, err = s.verify(cfg.oracleBudget); err != nil {
		return nil, err
	}
	if err := raw.checkAgainst(s); err != nil {
		return nil, err
	}

	m := res.Metrics
	large := largeClass[cfg.workload]
	small := func(class string) bool { return isQuery(class) && class != large }
	queries := float64(after.Queries - before.Queries)
	m["service.hit_ratio"] = float64(after.CacheHits+after.MaintainedHits-before.CacheHits-before.MaintainedHits) / queries
	m["service.maintained_hit_ratio"] = float64(after.MaintainedHits-before.MaintainedHits) / queries
	m["service.recomputes_under_write"] = float64(after.Computed-before.Computed) - float64(run.noCacheQueries)
	m["service.rejected"] = float64(after.Rejected - before.Rejected)
	if cfg.workload == "dashboard" {
		p99, _ := loadgen.Percentile(loadgen.Millis(run.lags), 0.99)
		m["loadgen.sched_lag_p99_us"] = p99 * 1000
		p99, _ = loadgen.Percentile(loadgen.Millis(run.fireLags), 0.99)
		m["loadgen.fire_lag_p99_us"] = p99 * 1000
	}
	layerMetrics(m, obs, small)

	if cfg.workload == "adhoc" {
		if m["core.exec_w2_speedup"], err = execSpeedup(raw, s.gen.Standing[1]); err != nil {
			return nil, err
		}
	}
	if durable {
		single := func(class string) bool { return class == "insert1" }
		m["service.commit_wait_us"] = obs.median("client.concurrent", single) - obs.median("client.untraced", single)
		if m["store.group_commit_gain"], m["store.syncs_per_commit"], err = groupCommit(filepath.Join(cfg.workDir, "gc"), s.gen.Datasets[0].Tuples[0]); err != nil {
			return nil, err
		}
		// Disk amplification after a clean shutdown, as the untraced run
		// measures it on the real process.
		if err := svcB.Close(); err != nil {
			return nil, err
		}
		onDisk, err := dirBytes(dirB)
		if err != nil {
			return nil, err
		}
		var user int64
		for _, d := range s.gen.Datasets {
			user += workload.UserBytes(s.mirror.Current(d.Name))
		}
		m["store.disk_amp"] = float64(onDisk) / float64(user)
	}
	seedDir := ""
	if durable {
		seedDir = dirB
	}
	if m["ksjqd.boot_ms"], err = bootTime(cfg, seedDir); err != nil {
		return nil, err
	}

	// The budget of the workload's dominant op: its layers' self times
	// should add up to what the client saw.
	budgetClass, sum := small, m["ksjqd.transport_us"]+m["httpapi.query_self_us"]
	switch cfg.workload {
	case "adhoc":
		sum += m["service.miss_self_us"] + m["planner.choose_us"] + m["core.exec_us"]
	case "dashboard":
		sum += m["service.hit_us"]
	case "ingest":
		budgetClass = func(class string) bool { return class == "insert1" }
		sum = obs.median("ksjqd.transport", budgetClass) + obs.median("httpapi.mutate_self", budgetClass) +
			obs.median("service.commit_self", budgetClass) + obs.median("service.commit_children", budgetClass)
	}
	closeBudget(m, obs, budgetClass, sum)

	if err := tr.write(filepath.Join(outDir, "trace-"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// tracePhase is a stretch of a traced run's rounds played the same way.
type tracePhase struct {
	rounds int
	warm   bool // the warm-up round: nothing is recorded
	traced bool // spans on, twins' timings recorded
	serial bool // the clients' ops take turns on one connection
	// counters marks the phase the service's own counters are read over:
	// the one that has the workload's real concurrency.
	counters bool
}

// tracedRun is the state a single-node traced run threads through its
// rounds.
type tracedRun struct {
	tr   *tracer
	obs  *observations
	s    *session
	twin *directTwin
	res  *runResult

	lags, fireLags []time.Duration
	noCacheQueries int
}

// serialize merges a round's client lists into one, ops taking turns.
func serialize(round workload.Round) workload.Round {
	var merged []workload.Op
	for i, more := 0, true; more; i++ {
		more = false
		for _, ops := range round.Clients {
			if i < len(ops) {
				merged = append(merged, ops[i])
				more = true
			}
		}
	}
	return workload.Round{Clients: [][]workload.Op{merged}, DurationUS: round.DurationUS}
}

// servedOp is what the served stack's side of one traced request left:
// the span of the handler (or gateway) that answered it and, for a query,
// the source the reply named.
type servedOp struct {
	handler span
	source  string
}

// serve plays the next round against the served stack over HTTP and files
// the client-side observations: latencies by phase, and for traced rounds
// the client span, the transport time and the reply size of every request.
func (t *tracedRun) serve(ph tracePhase) (workload.Round, map[string]servedOp, error) {
	tr, obs, s := t.tr, t.obs, t.s
	tr.on.Store(ph.traced)
	s.tagged, s.warm = ph.traced, ph.warm
	round := s.gen.Next()
	if ph.serial {
		round = serialize(round)
	}
	from := tr.len()
	samples, _ := s.runRound(round)
	if err := firstFailure(samples); err != nil {
		return round, nil, err
	}
	handlers := tr.handlerSpans(from)
	served := make(map[string]servedOp, len(samples))
	for _, sm := range samples {
		clientUS := float64(sm.done.Sub(sm.sent)) / float64(time.Microsecond)
		switch {
		case ph.warm:
		case !ph.traced && ph.counters:
			obs.add("client.concurrent", sm.class, clientUS)
		case !ph.traced:
			obs.add("client.untraced", sm.class, clientUS)
		default:
			t.res.Attempted++
			if !sm.ok {
				t.res.Failed++
			}
			t.lags, t.fireLags = append(t.lags, sm.lag), append(t.fireLags, sm.fireLag)
			tr.add(span{Name: "client", Req: sm.id, Class: sm.class, StartUS: tr.at(sm.sent), EndUS: tr.at(sm.done)})
			h, ok := handlers[sm.id]
			if !ok {
				return round, nil, fmt.Errorf("trace: request %s has no handler span", sm.id)
			}
			served[sm.id] = servedOp{handler: h, source: sm.source}
			obs.add("client.traced", sm.class, clientUS)
			if h.Bytes <= smallReplyBytes {
				obs.add("ksjqd.transport", sm.class, clientUS-h.us())
			}
			if sm.kind == workload.Query {
				obs.add("httpapi.resp_bytes", sm.class, float64(h.Bytes))
			}
		}
	}
	return round, served, nil
}

// round serves the next round and replays every op on the twins, one at a
// time; several clients' ops take turns.
func (t *tracedRun) round(ph tracePhase) error {
	round, served, err := t.serve(ph)
	if err != nil {
		return err
	}
	for i, op := range serialize(round).Clients[0] {
		// A traced round has one client list, so the served ids match the
		// merged positions.
		req := fmt.Sprintf("%d.0.%d", t.s.round-1, i)
		serviceUS, sourceB, err := t.twin.replay(op, req)
		if err != nil {
			return fmt.Errorf("trace: twin replay of %s: %w", req, err)
		}
		if !ph.traced {
			continue
		}
		if op.Kind == workload.Query && op.NoCache {
			t.noCacheQueries++
		}
		a := served[req]
		if op.Kind == workload.Query && (a.source == "computed") != (sourceB == "computed") {
			// Beside a commit the served stack recomputed an answer the
			// sequential twin held warm (or the reverse): the two spans
			// time different work and do not subtract.
			continue
		}
		metric := "httpapi.mutate_self"
		if op.Kind == workload.Query {
			metric = "httpapi.query_self"
		}
		t.obs.add(metric, opClass(op), a.handler.us()-serviceUS)
	}
	return nil
}

// closeBudget reports the dominant op's traced client p50 beside the sum
// of its layers' self times, and what tracing itself cost.
func closeBudget(m map[string]float64, obs *observations, class func(string) bool, sumUS float64) {
	tracedP50, untracedP50 := obs.median("client.traced", class), obs.median("client.untraced", class)
	m["trace.budget_sum_us"] = sumUS
	m["trace.client_p50_us"] = tracedP50
	m["trace.overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100
}

// layerMetrics turns the observations every single-node traced run makes
// into the named per-layer metrics. small picks the dominant query class.
func layerMetrics(m map[string]float64, obs *observations, small func(string) bool) {
	m["ksjqd.transport_us"] = obs.median("ksjqd.transport", anyClass)
	m["httpapi.query_self_us"] = obs.median("httpapi.query_self", small)
	if bytes := obs.sum("httpapi.resp_bytes", isQuery); bytes > 0 {
		m["httpapi.ns_per_resp_byte"] = obs.sum("httpapi.query_self", isQuery) * 1000 / bytes
		m["httpapi.resp_bytes_per_query"] = bytes / float64(len(obs.values("httpapi.resp_bytes", isQuery)))
	}
	m["httpapi.mutate_self_us"] = obs.median("httpapi.mutate_self", isMutation)
	m["service.hit_us"] = obs.median("service.hit", small)
	m["service.miss_self_us"] = obs.median("service.miss_self", small)
	m["service.commit_self_us"] = obs.median("service.commit_self", isMutation)
	m["planner.choose_us"] = obs.median("planner.choose", small)
	m["core.exec_us"] = obs.median("core.exec", small)
	m["core.grouping_us"] = obs.median("core.grouping", small)
	m["core.join_us"] = obs.median("core.join", small)
	m["core.verify_us"] = obs.median("core.verify", small)
	if n := float64(len(obs.values("core.domtests", isQuery))); n > 0 {
		tests := obs.sum("core.domtests", isQuery)
		m["core.domtests_per_query"] = tests / n
		m["core.candidates_per_query"] = obs.sum("core.candidates", isQuery) / n
		if tests > 0 {
			m["core.ns_per_domtest"] = obs.sum("core.verify", isQuery) * 1000 / tests
		}
	}
	m["core.resident_build_us"] = obs.median("core.resident_build", anyClass)
	m["core.absorb_us_per_tuple"] = obs.median("core.absorb_us_per_tuple", anyClass)
	m["core.retract_us_per_row"] = obs.median("core.retract_us_per_row", anyClass)
	m["join.index_build_us"] = obs.median("join.index_build", anyClass)
	m["join.extend_us_per_row"] = obs.median("join.extend_us_per_row", anyClass)
	m["join.retract_us_per_row"] = obs.median("join.retract_us_per_row", anyClass)
	m["dataset.append_ns_per_tuple"] = obs.median("dataset.append_ns_per_tuple", anyClass)
	m["dataset.delete_us_per_batch"] = obs.median("dataset.delete_us_per_batch", anyClass)
	m["store.append_us"] = obs.median("store.append", anyClass)
	m["store.sync_us"] = obs.median("store.sync", anyClass)
	m["store.wal_bytes_per_user_byte"] = obs.median("store.wal_bytes_per_user_byte", anyClass)
	m["store.segment_bytes_per_user_byte"] = obs.median("store.segment_bytes_per_user_byte", anyClass)
	m["store.checkpoint_ms"] = obs.median("store.checkpoint_ms", anyClass)
	m["store.recover_ms"] = obs.median("store.recover_ms", anyClass)
}

// recoverOnce times a crash recovery of the twin service's data directory:
// the directory is copied as it stands between two rounds, with nothing
// writing to it — segments of the last checkpoint plus the WAL tail of the
// round played since, what kill -9 would leave — and service.Open replays
// the copy.
func recoverOnce(tr *tracer, obs *observations, cfg service.Config, live, copyTo string) error {
	if err := copyDir(live, copyTo); err != nil {
		return err
	}
	var svc *service.Service
	var err error
	us := tr.time("service.Open", "", filepath.Base(copyTo), "build", func() { svc, err = service.Open(cfg, copyTo) })
	if err != nil {
		return fmt.Errorf("trace: recovering a copy of the data directory: %w", err)
	}
	obs.add("store.recover_ms", "build", us/1000)
	return svc.Close()
}

// execSpeedup is the first scaling point off one CPU: the large query's
// engine run with one verification worker against two, medians of five.
func execSpeedup(raw *rawTwin, q workload.StandingQuery) (float64, error) {
	p := raw.pairs[q.R1]
	times := make(map[int][]float64)
	for i := 0; i < 5; i++ {
		// Alternating the two degrees spreads the machine's drift over both.
		for _, workers := range []int{1, 2} {
			start := time.Now()
			if _, err := p.res.Exec(context.Background(), p.query(q.K), core.ExecOptions{Algorithm: core.Grouping, Workers: workers}); err != nil {
				return 0, err
			}
			times[workers] = append(times[workers], time.Since(start).Seconds())
		}
	}
	return loadgen.Median(times[1]) / loadgen.Median(times[2]), nil
}

// bootTime is exec to /healthz of the workload's real deployment, median of
// three. A durable deployment boots on a copy of seedDir, so the time
// includes loading what a restart would load.
func bootTime(cfg runConfig, seedDir string) (float64, error) {
	var times []float64
	for i := 0; i < 3; i++ {
		dep, err := newDeployment(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("boot-%d", i)))
		if err != nil {
			return 0, err
		}
		if seedDir != "" {
			if err := copyDir(seedDir, dep.dataDir); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		err = dep.start()
		took := time.Since(start)
		dep.kill()
		if err != nil {
			return 0, err
		}
		times = append(times, float64(took)/float64(time.Millisecond))
	}
	return loadgen.Median(times), nil
}
