package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/loadgen"
	"repro/bench/oracle"
	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// limits is each workload's latency limit: a reply later than this counts
// as failed, exactly like a refused or errored one. The dashboard's is
// counted from the request's due time. It is 2 s and not the 100 ms a
// dashboard deserves because the shared sandbox itself stalls — 60-90 ms a
// few times a minute, close to a second once in a dozen runs — and a
// workload must not fail operations at the seed commit; the share of
// requests later than 100 ms is reported beside it as late_100ms_ratio.
var limits = map[string]time.Duration{
	"adhoc":     5 * time.Second,
	"dashboard": 2 * time.Second,
	"ingest":    time.Second,
	"cluster":   10 * time.Second,
}

// sampleEvery is the stride of replies kept whole for a pair-for-pair
// comparison; every reply's count, versions and source are checked.
const sampleEvery = 50

var anySource = []string{"computed", "cached", "maintained"}

// session is the client side of one run: the schedule, the mirror of what
// was sent, the connections, and every reply kept for the oracle.
type session struct {
	name   string
	gen    *workload.Generator
	mirror *workload.Mirror
	check  *oracle.Checker
	conns  []*conn
	limit  time.Duration

	// relMu orders each relation's mutations: logged in the mirror, sent
	// and acknowledged under the lock, so the mirror's log is the order the
	// server applied them in even when two connections carry mutations.
	relMu map[string]*sync.Mutex

	// tagged adds the X-Bench-Request header a tracing middleware keys its
	// spans on; round and warm say where in the run the session is.
	tagged bool
	round  int
	warm   bool

	// Per-connection records, so the hot path takes no lock.
	replies [][]oracle.Reply
	sampled [][]sampledBody
	queries []int
	// lastSource is the source the connection's latest query reply named.
	lastSource []string

	// broken latches the first failed mutation: past it the mirror no
	// longer knows the server's state and no answer can be checked.
	broken atomic.Pointer[error]
}

// sampledBody is a reply kept whole: decoding waits until the run is over
// so it costs the measured phase a copy, not a 10 ms parse.
type sampledBody struct {
	reply int
	body  []byte
}

func newSession(name string, seed int64, sz workload.Sizes, base string) (*session, error) {
	gen, err := workload.New(name, seed, sz)
	if err != nil {
		return nil, err
	}
	s := &session{
		name: name, gen: gen, mirror: workload.NewMirror(gen.Datasets),
		limit: limits[name], relMu: make(map[string]*sync.Mutex),
	}
	s.check = oracle.New(s.mirror)
	for _, d := range gen.Datasets {
		s.relMu[d.Name] = new(sync.Mutex)
	}
	// Two connections at most: one per closed-loop client, or the open
	// loop's two.
	n := 1
	if name == "dashboard" || name == "ingest" {
		n = 2
	}
	for i := 0; i < n; i++ {
		s.conns = append(s.conns, newConn(base, 2*s.limit+10*time.Second))
	}
	s.replies = make([][]oracle.Reply, n)
	s.sampled = make([][]sampledBody, n)
	s.queries = make([]int, n)
	s.lastSource = make([]string, n)
	return s, nil
}

// register loads every dataset at its current mirror contents. After a
// restart of an in-memory deployment that is how its data comes back, and
// the server counts versions from 1 again.
func (s *session) register() error {
	for _, d := range s.gen.Datasets {
		status, body, err := s.conns[0].post("/v1/relations", registerBody(d.Name, s.mirror.Current(d.Name)), "")
		if err != nil {
			return fmt.Errorf("registering %s: %w", d.Name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("registering %s: %w", d.Name, apiError(status, body))
		}
		s.mirror.Rebase(d.Name)
	}
	return nil
}

// sources lists what a correct server may name as an answer's source.
func (s *session) sources(op workload.Op) []string {
	switch {
	case op.NoCache:
		// A forced recompute — through the gateway too, whose source is the
		// coldest shard's.
		return anySource[:1]
	case s.name == "dashboard" && !s.warm && strings.HasPrefix(op.Class, "ind."):
		// ind never mutates, so its panels stay plain cache hits.
		return anySource[1:2]
	default:
		// A maintained entry, a snapshot cached since, or a recompute that
		// landed in a commit window.
		return anySource
	}
}

// encoded is a schedule op rendered for the wire before its round starts.
type encoded struct {
	path string
	body []byte
	id   string
}

// do performs one op on one connection; a nil error is a correct reply.
func (s *session) do(c int, op workload.Op, e encoded) error {
	if p := s.broken.Load(); p != nil {
		return *p
	}
	if op.Kind == workload.Query {
		return s.doQuery(c, op, e)
	}
	mu := s.relMu[op.Relation]
	mu.Lock()
	defer mu.Unlock()
	want := s.mirror.Issue(op)
	status, body, err := s.conns[c].post(e.path, e.body, e.id)
	if err == nil && status != http.StatusOK {
		err = apiError(status, body)
	}
	var ack mutationReply
	if err == nil {
		err = json.Unmarshal(body, &ack)
	}
	if err == nil && (ack.Version != want || ack.Count != len(op.Tuples)+len(op.IDs)) {
		err = fmt.Errorf("acknowledged %d rows at version %d, want %d rows at version %d",
			ack.Count, ack.Version, len(op.Tuples)+len(op.IDs), want)
	}
	if err != nil {
		err = fmt.Errorf("%s on %s: %w", op.Kind, op.Relation, err)
		s.broken.CompareAndSwap(nil, &err)
		return err
	}
	s.mirror.Ack(op.Relation)
	return nil
}

func (s *session) doQuery(c int, op workload.Op, e encoded) error {
	lo, _ := s.mirror.Versions(op.R1, op.R2)
	status, body, err := s.conns[c].post(e.path, e.body, e.id)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(status, body)
	}
	_, hi := s.mirror.Versions(op.R1, op.R2)
	env, err := parseEnvelope(body)
	if err != nil {
		return fmt.Errorf("query reply: %w", err)
	}
	s.replies[c] = append(s.replies[c], oracle.Reply{
		Query: workload.StandingQuery{Class: op.Class, R1: op.R1, R2: op.R2, K: op.K},
		Count: env.Count, Versions: env.Versions, Source: env.Source,
		Lo: lo, Hi: hi, Sources: s.sources(op),
	})
	s.lastSource[c] = env.Source
	if s.queries[c]%sampleEvery == 0 {
		s.sampled[c] = append(s.sampled[c], sampledBody{reply: len(s.replies[c]) - 1, body: append([]byte(nil), body...)})
	}
	s.queries[c]++
	return nil
}

// opSample is one measured operation.
type opSample struct {
	kind    workload.Kind
	class   string // opClass: "q:ind.k10", "insert1", ...
	id      string
	source  string // a query reply's source
	latency time.Duration
	lag     time.Duration // sent - due
	fireLag time.Duration // sent - (due and a connection free)
	sent    time.Time
	done    time.Time
	ok      bool
	err     error
}

// runRound plays one round — open loop if it has a duration, else one
// closed loop per client — and returns its samples and wall time.
func (s *session) runRound(round workload.Round) ([]opSample, time.Duration) {
	enc := make([][]encoded, len(round.Clients))
	for c, ops := range round.Clients {
		enc[c] = make([]encoded, len(ops))
		for i, op := range ops {
			e := &enc[c][i]
			e.path, e.body = encodeOp(op)
			if s.tagged {
				e.id = fmt.Sprintf("%d.%d.%d", s.round, c, i)
			}
		}
	}
	var raw []loadgen.Sample
	sources := make([][]string, len(round.Clients))
	for c, ops := range round.Clients {
		sources[c] = make([]string, len(ops))
	}
	start := time.Now()
	if round.DurationUS > 0 {
		ops := round.Clients[0]
		due := make([]time.Duration, len(ops))
		for i, op := range ops {
			due[i] = time.Duration(op.DueUS) * time.Microsecond
		}
		raw = loadgen.Open(due, len(s.conns), func(c, i int) error {
			err := s.do(c, ops[i], enc[0][i])
			sources[0][i] = s.lastSource[c]
			return err
		})
		for i := range raw {
			raw[i].Client = 0 // Open reports the connection; the schedule has one list
		}
	} else {
		counts := make([]int, len(round.Clients))
		for c, ops := range round.Clients {
			counts[c] = len(ops)
		}
		raw = loadgen.Closed(counts, func(c, i int) error {
			err := s.do(c, round.Clients[c][i], enc[c][i])
			sources[c][i] = s.lastSource[c]
			return err
		})
	}
	wall := time.Since(start)
	s.round++
	out := make([]opSample, len(raw))
	for i, r := range raw {
		op := round.Clients[r.Client][r.Index]
		out[i] = opSample{
			kind: op.Kind, class: opClass(op), id: enc[r.Client][r.Index].id, source: sources[r.Client][r.Index],
			latency: r.Latency(), lag: r.Lag(), fireLag: r.FireLag(),
			sent: start.Add(r.Sent), done: start.Add(r.Done),
			ok: r.Err == nil && r.Latency() <= s.limit, err: r.Err,
		}
	}
	return out, wall
}

// play runs a round whose samples nobody needs and returns its first
// failure.
func (s *session) play(round workload.Round) error {
	samples, _ := s.runRound(round)
	return firstFailure(samples)
}

// ask sends one standing query outside the schedule and returns the fully
// decoded reply, ready for oracle.Check. Cold says the server's caches
// cannot hold the answer (it was just restarted).
func (s *session) ask(q workload.StandingQuery, noCache, cold bool) (oracle.Reply, error) {
	op := workload.Op{Kind: workload.Query, Class: q.Class, R1: q.R1, R2: q.R2, K: q.K, NoCache: noCache}
	path, body := encodeOp(op)
	lo, hi := s.mirror.Versions(q.R1, q.R2)
	status, reply, err := s.conns[0].post(path, body, "")
	if err != nil {
		return oracle.Reply{}, err
	}
	if status != http.StatusOK {
		return oracle.Reply{}, apiError(status, reply)
	}
	full, err := parseSkyline(reply)
	if err != nil {
		return oracle.Reply{}, err
	}
	sources := anySource
	if noCache || cold {
		sources = anySource[:1]
	}
	return oracle.Reply{
		Query: q, Count: full.Count, Versions: full.Versions, Source: full.Source,
		Lo: lo, Hi: hi, Sources: sources, Pairs: full.Skyline,
	}, nil
}

// verify runs the oracle over everything the session saw: every reply's
// envelope, recomputes within the budget, the sampled replies pair for
// pair, and finally each standing query's current answer.
func (s *session) verify(budget time.Duration) (oracle.Report, error) {
	if p := s.broken.Load(); p != nil {
		return oracle.Report{}, *p
	}
	var all []oracle.Reply
	for c := range s.replies {
		for _, sb := range s.sampled[c] {
			full, err := parseSkyline(sb.body)
			if err != nil {
				return oracle.Report{}, fmt.Errorf("sampled reply: %w", err)
			}
			s.replies[c][sb.reply].Pairs = full.Skyline
		}
		all = append(all, s.replies[c]...)
	}
	rep, err := s.check.CheckAll(all, budget)
	if err != nil {
		return rep, err
	}
	for _, q := range s.gen.Standing {
		r, err := s.ask(q, false, false)
		if err != nil {
			return rep, fmt.Errorf("final answer of %s: %w", q.Class, err)
		}
		if err := s.check.Check(r); err != nil {
			return rep, fmt.Errorf("final answer: %w", err)
		}
	}
	return rep, nil
}

// naiveCheck registers a small extra pair, asks the server for its skyline
// and compares it with core.Naive — the paper's join-then-filter baseline,
// which shares no pruning logic with what the server ran.
func (s *session) naiveCheck(seed int64) error {
	var rels [2]*dataset.Relation
	names := [2]string{"naive.r1", "naive.r2"}
	for i, name := range names {
		r, err := datagen.Generate(datagen.Config{
			Name: name, N: 200, Local: workload.Local, Agg: workload.Agg, Groups: 10,
			Dist: datagen.AntiCorrelated, Seed: seed*2 + int64(i),
		})
		if err != nil {
			return err
		}
		rels[i] = r
		status, body, err := s.conns[0].post("/v1/relations", registerBody(name, r.Rows()), "")
		if err == nil && status != http.StatusOK {
			err = apiError(status, body)
		}
		if err != nil {
			return fmt.Errorf("naive check: registering %s: %w", name, err)
		}
	}
	for k := 10; k <= 11; k++ {
		path, body := encodeOp(workload.Op{Kind: workload.Query, R1: names[0], R2: names[1], K: k})
		status, reply, err := s.conns[0].post(path, body, "")
		if err == nil && status != http.StatusOK {
			err = apiError(status, reply)
		}
		if err != nil {
			return fmt.Errorf("naive check: %w", err)
		}
		full, err := parseSkyline(reply)
		if err != nil {
			return err
		}
		want, err := oracle.Recompute(rels[0], rels[1], k, core.Naive)
		if err != nil {
			return err
		}
		if err := oracle.ComparePairs(fmt.Sprintf("naive check k=%d", k), full.Skyline, want); err != nil {
			return err
		}
	}
	for _, name := range names {
		req, err := http.NewRequest(http.MethodDelete, s.conns[0].base+"/v1/relations?name="+name, nil)
		if err != nil {
			return err
		}
		resp, err := s.conns[0].hc.Do(req)
		if err != nil {
			return fmt.Errorf("naive check: unregistering %s: %w", name, err)
		}
		resp.Body.Close()
	}
	return nil
}
