package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/bench/loadgen"
	"repro/bench/oracle"
	"repro/bench/workload"
	"repro/internal/httpapi"
)

// runConfig says what one run measures and with what.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sizes    workload.Sizes
	bin      string // built ksjqd
	workDir  string // scratch space inside the checkout
	// setups is how many times the deployment is set up from nothing
	// (setup_s is their median; the last one is measured on); restarts is
	// how many kill -9 recoveries restart_ms is the median of.
	setups, restarts int
	oracleBudget     time.Duration
	// checkpoint is the durable deployment's checkpoint interval: 2 s lets
	// about thirteen checkpoints elapse in a 26 s run.
	checkpoint time.Duration
}

// runResult is one run's outcome.
type runResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Notes name every metric reported on fewer samples than the percentile
	// rule asks for, and anything else a reader must know.
	Notes  []string      `json:"notes,omitempty"`
	Oracle oracle.Report `json:"oracle"`
	// Runs holds each run's metrics when Metrics are medians over several.
	Runs []map[string]float64 `json:"runs,omitempty"`
}

// liveSession is a session with the real processes it talks to.
type liveSession struct {
	*session
	dep *deployment
}

// setUp boots the workload's deployment from nothing, registers the
// datasets and plays the warm-up round; it returns how long that took.
func setUp(cfg runConfig, dir string, checkNaive bool) (*liveSession, time.Duration, error) {
	dep, err := newDeployment(cfg, dir)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := dep.start(); err != nil {
		dep.kill()
		return nil, 0, err
	}
	s, err := newSession(cfg.workload, cfg.seed, cfg.sizes, dep.url())
	if err == nil {
		err = s.register()
	}
	if err == nil {
		s.warm = true
		err = s.play(s.gen.Next())
		s.warm = false
	}
	took := time.Since(start)
	if err == nil && checkNaive {
		err = s.naiveCheck(cfg.seed)
	}
	if err != nil {
		dep.kill()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return &liveSession{session: s, dep: dep}, took, nil
}

func firstFailure(samples []opSample) error {
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// runWorkload is the untraced run: set up (several times), measure whole
// rounds for cfg.seconds, check every answer, crash and recover, shut down.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{Metrics: make(map[string]float64)}
	var ls *liveSession
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		if ls != nil {
			ls.dep.kill()
		}
		var took time.Duration
		var err error
		ls, took, err = setUp(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", i)), i == 0)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer func() { ls.dep.kill() }()
	res.Metrics["setup_s"] = loadgen.Median(setupTimes)

	// Measured phase: whole rounds until the time is up, so every run of
	// the same code does the same work per round.
	cpu0, err := ls.dep.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var samples []opSample
	var wall time.Duration
	for begin := time.Now(); time.Since(begin).Seconds() < cfg.seconds; {
		out, took := ls.runRound(ls.gen.Next())
		samples = append(samples, out...)
		wall += took
		if ls.broken.Load() != nil {
			break
		}
	}
	cpu1, err := ls.dep.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := ls.dep.rssMB()
	if err != nil {
		return nil, err
	}
	summarize(res, samples, wall, cfg.workload)
	res.Metrics["server_cpu_ms_per_op"] = (cpu1 - cpu0) * 1000 / float64(max(res.Attempted-res.Failed, 1))
	res.Metrics["server_rss_mb"] = rss

	if res.Oracle, err = ls.verify(cfg.oracleBudget); err != nil {
		return nil, err
	}

	restartMS, err := ls.crashAndRecover(cfg.restarts)
	if err != nil {
		return nil, err
	}
	res.Metrics["restart_ms"] = loadgen.Median(restartMS)

	if err := ls.dep.stop(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("clean shutdown: %w", err)
	}
	if ls.dep.dataDir != "" {
		amp, err := ls.diskAmp()
		if err != nil {
			return nil, err
		}
		res.Metrics["disk_amp"] = amp
	}
	return res, nil
}

// fireLagLimitMS is the validity limit of an open loop's numbers: a generator
// whose 99th-percentile op leaves later than this after it was both due and
// had a free connection cannot keep its schedule, and the latencies measure
// the generator. (Ops leaving late because both connections are busy is the
// system's doing, charged to latency by timing from the due time, and
// reported as sched_lag_p99_ms.)
const fireLagLimitMS = 5.0

// summarize folds the measured samples into the latency, throughput and
// failure metrics, and the extras the workload reports (see extras).
func summarize(res *runResult, samples []opSample, wall time.Duration, name string) {
	var queries, mutations, lags, fire []time.Duration
	late := 0
	for _, s := range samples {
		res.Attempted++
		lags, fire = append(lags, s.lag), append(fire, s.fireLag)
		if !s.ok || s.latency > 100*time.Millisecond {
			late++
		}
		if !s.ok {
			res.Failed++
			continue
		}
		if s.kind == workload.Query {
			queries = append(queries, s.latency)
		} else {
			mutations = append(mutations, s.latency)
		}
	}
	pct := func(metric string, ds []time.Duration, p float64) {
		v, ok := loadgen.Percentile(loadgen.Millis(ds), p)
		res.Metrics[metric] = v
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s rests on %d samples, fewer than ten beyond it", metric, len(ds)))
		}
	}
	pct("query_p50_ms", queries, 0.50)
	pct("query_p95_ms", queries, 0.95)
	pct("mutate_p50_ms", mutations, 0.50)
	res.Metrics["ops_per_s"] = float64(res.Attempted-res.Failed) / wall.Seconds()
	res.Metrics["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	switch name {
	case "dashboard":
		pct("query_p99_ms", queries, 0.99)
		pct("sched_lag_p99_ms", lags, 0.99)
		pct("fire_lag_p99_ms", fire, 0.99)
		res.Metrics["late_100ms_ratio"] = float64(late) / float64(max(len(samples), 1))
		if lag := res.Metrics["fire_lag_p99_ms"]; lag > fireLagLimitMS {
			res.Notes = append(res.Notes, fmt.Sprintf("fire_lag_p99_ms %.1f is over %v ms: the generator fell behind its schedule and the latencies measure it, not the servers", lag, fireLagLimitMS))
		}
	case "ingest":
		pct("mutate_p95_ms", mutations, 0.95)
	}
}

// crashAndRecover measures n times how long the deployment takes to get
// from kill -9 back to a correct answer: boot, get its data back — a
// durable server from its directory, an in-memory one from the client
// re-registering the mirror — and answer the first standing query exactly
// as before the crash.
func (ls *liveSession) crashAndRecover(n int) ([]float64, error) {
	q := ls.gen.Standing[0]
	durable := ls.dep.dataDir != ""
	if durable {
		// Start from a fresh checkpoint: otherwise the first recovery replays
		// whatever tail the 2 s ticker happened to leave — 0 to 700 records,
		// a coin toss worth 6 ms that made restart_ms bimodal across runs.
		// From here each recovery replays exactly the rounds played since.
		if err := ls.waitForCheckpoint(5 * time.Second); err != nil {
			return nil, err
		}
	}
	var out []float64
	for i := 0; i < n; i++ {
		if durable {
			// Fresh mutations, so the WAL has a tail to replay.
			if err := ls.play(ls.gen.Next()); err != nil {
				return nil, err
			}
		}
		before, err := ls.ask(q, false, false)
		if err != nil {
			return nil, fmt.Errorf("answer before crash %d: %w", i, err)
		}
		ls.dep.kill()
		for _, c := range ls.conns {
			c.reset()
		}
		start := time.Now()
		if err := ls.dep.start(); err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		if !durable {
			if err := ls.register(); err != nil {
				return nil, fmt.Errorf("restart %d: %w", i, err)
			}
		}
		after, err := ls.ask(q, false, true)
		if err != nil {
			return nil, fmt.Errorf("answer after restart %d: %w", i, err)
		}
		out = append(out, float64(time.Since(start))/float64(time.Millisecond))
		if err := ls.check.Check(after); err != nil {
			return nil, fmt.Errorf("after restart %d: %w", i, err)
		}
		if err := samePairs(before.Pairs, after.Pairs); err != nil {
			return nil, fmt.Errorf("after restart %d %s differs from the answer before the crash: %w", i, q.Class, err)
		}
		if durable && before.Versions != after.Versions {
			return nil, fmt.Errorf("after restart %d versions are %v, before the crash %v", i, after.Versions, before.Versions)
		}
	}
	return out, nil
}

// waitForCheckpoint polls /v1/stats until the server has just completed a
// checkpoint.
func (ls *liveSession) waitForCheckpoint(limit time.Duration) error {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := ls.conns[0].hc.Get(ls.conns[0].base + "/v1/stats")
		if err != nil {
			return err
		}
		var st struct {
			LastCheckpointMS int64 `json:"last_checkpoint_ms"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/v1/stats: %w", err)
		}
		if st.LastCheckpointMS >= 0 && st.LastCheckpointMS < 50 {
			return nil
		}
	}
	return fmt.Errorf("no checkpoint within %v", limit)
}

// samePairs compares two decoded answers exactly, order included: a durable
// restart must reproduce the answer, not merely an equivalent one.
func samePairs(a, b []httpapi.PairJSON) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d pairs vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Left != b[i].Left || a[i].Right != b[i].Right {
			return fmt.Errorf("pair %d is (%d,%d) vs (%d,%d)", i, a[i].Left, a[i].Right, b[i].Left, b[i].Right)
		}
		if !slices.Equal(a[i].Attrs, b[i].Attrs) {
			return fmt.Errorf("pair (%d,%d) attrs differ", a[i].Left, a[i].Right)
		}
	}
	return nil
}

// diskAmp is the bytes the data directory holds after a clean shutdown per
// byte of live user data.
func (ls *liveSession) diskAmp() (float64, error) {
	onDisk, err := dirBytes(ls.dep.dataDir)
	if err != nil {
		return 0, err
	}
	var user int64
	for _, d := range ls.gen.Datasets {
		user += workload.UserBytes(ls.mirror.Current(d.Name))
	}
	return float64(onDisk) / float64(user), nil
}

// scratchDir makes a fresh directory for one run under the build directory
// and returns it with its cleanup.
func scratchDir(buildDir string) (string, func(), error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
