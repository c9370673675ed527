package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/bench/workload"
	"repro/internal/httpapi"
)

// testBin is the ksjqd the smoke tests boot, built once per test binary.
var testBin string

func TestMain(m *testing.M) {
	code := func() int {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := loadCatalogue(root); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp("", "ksjq-bench-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		defer killAllLive()
		if testBin, err = buildKsjqd(root, dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

func tinyConfig(t *testing.T, name string) runConfig {
	return runConfig{
		workload: name, seed: 4, seconds: 0.3, sizes: workload.Tiny, bin: testBin,
		workDir: t.TempDir(), setups: 1, restarts: 2, oracleBudget: time.Second,
		checkpoint: 250 * time.Millisecond,
	}
}

// TestSmokeEveryWorkload runs each workload end to end at tiny sizes: real
// ksjqd processes on free ports (two shards and a gateway for cluster),
// measured rounds, the oracle over every reply, kill -9 and recovery, clean
// shutdown — then the traced pass over the in-process stack. It is what
// keeps the harness from rotting between benchmark runs.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workload.Names {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}
			for _, d := range extras {
				if _, ok := res.Metrics[d.Name]; ok != d.reportedOn(name) {
					t.Errorf("%s reported: %v, want %v", d.Name, ok, d.reportedOn(name))
				}
			}
			if res.Oracle.CheckedReplies == 0 {
				t.Error("the oracle recomputed no reply")
			}

			cfg.workDir, cfg.seconds = t.TempDir(), 2
			out := t.TempDir()
			traced, err := runTraced(cfg, out)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				v, ok := traced.Metrics[d.Name]
				if !ok {
					// A metric a workload does not exercise reads 0; the
					// contract line renders missing ones as 0 too.
					continue
				}
				layer := d.Name[:strings.IndexByte(d.Name, '.')]
				if layer == "shard" && (v != 0) != (name == "cluster") {
					t.Errorf("%s = %v on %s: shard spans belong to cluster alone", d.Name, v, name)
				}
				if layer == "store" && v != 0 && name != "ingest" {
					t.Errorf("%s = %v on %s: only ingest has a store", d.Name, v, name)
				}
			}
			if traced.Metrics["trace.client_p50_us"] <= 0 || traced.Metrics["trace.budget_sum_us"] <= 0 {
				t.Errorf("no budget: client p50 %v, layer sum %v", traced.Metrics["trace.client_p50_us"], traced.Metrics["trace.budget_sum_us"])
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace file: %d spans, err %v", len(spans), err)
			}
		})
	}
	live.Lock()
	defer live.Unlock()
	if n := len(live.procs); n != 0 {
		t.Errorf("%d server processes were left running", n)
	}
}

// TestWrongAnswerFailsTheRun puts a lying proxy between the load generator
// and a real ksjqd: it drops one pair from every non-empty answer and fixes
// up the count. The run must end in an error, not in metrics.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	cfg := tinyConfig(t, "adhoc")
	dep, err := newDeployment(cfg, cfg.workDir)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.kill()
	if err := dep.start(); err != nil {
		t.Fatal(err)
	}
	target, err := url.Parse(dep.url())
	if err != nil {
		t.Fatal(err)
	}
	lie := false
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if !lie || resp.Request.URL.Path != "/v1/query" {
			return nil
		}
		var reply httpapi.QueryResponseJSON
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return err
		}
		if reply.Count > 0 {
			reply.Skyline, reply.Count = reply.Skyline[1:], reply.Count-1
		}
		body, err := json.Marshal(reply)
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	for _, lying := range []bool{false, true} {
		lie = lying
		s, err := newSession(cfg.workload, cfg.seed, cfg.sizes, front.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !lying {
			if err := s.register(); err != nil {
				t.Fatal(err)
			}
		}
		// Queries only: the second session finds the data the first left.
		var ops []workload.Op
		for _, q := range s.gen.Standing {
			ops = append(ops, workload.Op{Kind: workload.Query, Class: q.Class, R1: q.R1, R2: q.R2, K: q.K, NoCache: true})
		}
		if err := s.play(workload.Round{Clients: [][]workload.Op{ops}}); err != nil {
			t.Fatal(err)
		}
		_, err = s.verify(time.Second)
		if lying && err == nil {
			t.Error("a run whose every answer lacks a pair passed verification")
		}
		if !lying && err != nil {
			t.Errorf("an honest run failed verification: %v", err)
		}
	}
}

func TestCompare(t *testing.T) {
	// write renders a report in which every metric a workload reports reads
	// 10 (fail_ratio 0), after edit changed what the case is about.
	write := func(domtests float64, edit func(m map[string]float64)) string {
		r := allReport{Seed: 1, Seconds: 20, Workloads: make(map[string]workloadReport)}
		for _, w := range workload.Names {
			m := map[string]float64{}
			for _, d := range untracedDefs(w) {
				m[d.Name] = 10
			}
			m["fail_ratio"] = 0
			edit(m)
			layers := &runResult{Metrics: map[string]float64{"core.domtests_per_query": domtests}}
			r.Workloads[w] = workloadReport{EndToEnd: &runResult{Metrics: m, Attempted: 100}, PerLayer: layers}
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// set changes a metric on the workloads that report it.
	set := func(name string, v float64) func(map[string]float64) {
		return func(m map[string]float64) {
			if _, ok := m[name]; ok {
				m[name] = v
			}
		}
	}
	drop := func(name string) func(map[string]float64) {
		return func(m map[string]float64) { delete(m, name) }
	}
	base := write(1000, drop(""))
	for _, c := range []struct {
		what   string
		b      string
		breach bool
	}{
		{"5% worse, inside every bound", write(1000, set("query_p50_ms", 10.5)), false},
		{"an improvement", write(1000, set("query_p50_ms", 5)), false},
		{"40% worse", write(1000, set("query_p50_ms", 14)), true},
		{"an extra 40% worse", write(1000, set("query_p99_ms", 14)), true},
		{"disk_amp 3% worse", write(1000, set("disk_amp", 10.3)), true},
		{"a diagnostic moved", write(1000, set("sched_lag_p99_ms", 40)), false},
		{"a newly failing operation", write(1000, set("fail_ratio", 0.01)), true},
		{"a contract metric missing", write(1000, drop("restart_ms")), true},
		{"a contract metric reading 0", write(1000, set("restart_ms", 0)), true},
		{"an extra missing", write(1000, drop("mutate_p95_ms")), true},
		{"a moved exact count", write(1001, drop("")), true},
	} {
		if err := compareFiles(base, c.b); (err != nil) != c.breach {
			t.Errorf("%s: breach %v, want %v", c.what, err, c.breach)
		}
	}
	// A metric the baseline lacks is as much a breach as one the new file lacks.
	if err := compareFiles(write(1000, drop("ops_per_s")), base); err == nil {
		t.Error("a metric missing from the first file passed")
	}
}

// TestAggregateTakesMedians: a set of runs (-all -runs N) is reported as each
// metric's median, with every run's values kept and the operations summed.
func TestAggregateTakesMedians(t *testing.T) {
	var runs []*runResult
	for _, v := range []float64{30, 10, 20} {
		runs = append(runs, &runResult{Metrics: map[string]float64{"query_p50_ms": v}, Attempted: 100, Failed: 1})
	}
	got := aggregate(runs)
	if got.Metrics["query_p50_ms"] != 20 || got.Attempted != 300 || got.Failed != 3 || len(got.Runs) != 3 {
		t.Errorf("aggregate = %+v", got)
	}
	if one := aggregate(runs[:1]); one != runs[0] {
		t.Error("a single run must come back as it is")
	}
}

// TestTardyGeneratorIsFlagged: ops that left late although a connection was
// free put the open loop's numbers in doubt, and the run must say so; ops
// that left late behind busy connections must not raise the flag.
func TestTardyGeneratorIsFlagged(t *testing.T) {
	for _, tardy := range []bool{false, true} {
		samples := make([]opSample, 2000)
		for i := range samples {
			samples[i] = opSample{kind: workload.Query, ok: true, latency: time.Millisecond, lag: 8 * time.Millisecond}
			if tardy {
				samples[i].fireLag = 8 * time.Millisecond
			}
		}
		res := &runResult{Metrics: make(map[string]float64)}
		summarize(res, samples, time.Second, "dashboard")
		flagged := slices.ContainsFunc(res.Notes, func(n string) bool { return strings.HasPrefix(n, "fire_lag_p99_ms") })
		if flagged != tardy {
			t.Errorf("generator tardy: %v, flagged: %v (notes %q)", tardy, flagged, res.Notes)
		}
	}
}

func TestParseEnvelopeTailAndFallback(t *testing.T) {
	reply := `{"skyline":[{"left":1,"right":2,"attrs":[0.5,0.25]}],"count":1,"source":"cached","algorithm":"grouping","versions":[3,4],"elapsed_us":7}`
	want := queryEnvelope{Count: 1, Source: "cached", Versions: [2]uint64{3, 4}}
	if got, err := parseEnvelope([]byte(reply)); err != nil || got != want {
		t.Errorf("tail parse: %+v, %v", got, err)
	}
	// Fields in another order: only the full decode finds them.
	reordered := `{"count":1,"source":"cached","versions":[3,4],"skyline":[{"left":1,"right":2,"attrs":[0.5,0.25]}]}`
	if got, err := parseEnvelope([]byte(reordered)); err != nil || got != want {
		t.Errorf("fallback parse: %+v, %v", got, err)
	}
	if _, err := parseEnvelope([]byte(`{"skyline":[`)); err == nil {
		t.Error("a truncated reply parsed")
	}
}

func TestUnionOfOverlappingSpans(t *testing.T) {
	spans := []span{{StartUS: 10, EndUS: 20}, {StartUS: 15, EndUS: 30}, {StartUS: 40, EndUS: 45}, {StartUS: 41, EndUS: 42}}
	if got := unionUS(spans); got != 25 {
		t.Errorf("union = %v us, want 25", got)
	}
	if got := unionUS(nil); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
}
