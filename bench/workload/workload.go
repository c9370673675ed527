// Package workload generates the benchmark's inputs: the datasets and,
// round by round, the schedule of operations each client sends. Everything
// is a pure function of (workload name, seed, sizes), so two runs with the
// same seed send byte-identical requests and both sides of a later
// comparison do identical work per round.
//
// A schedule is fixed in op count, not duration. The generator tracks each
// relation's rows while it emits ops, so delete ids are always valid,
// strictly ascending indexes into the relation as it will stand when the op
// arrives (every relation has one writer, so its history is deterministic).
//
// Mutations churn a fixed population: a delete parks the tuples it removes
// and an insert brings parked tuples back, so whatever the seed and however
// many rounds were played, a relation holds its population minus the few
// tuples parked at that moment (see Generator.parked).
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Schema of every generated relation (paper Table 7): 5 local and 2
// aggregate attributes, so the joined width is 12 and k ranges over 8..12.
const (
	Local = 5
	Agg   = 2
)

// Workload names, in the order -all runs them.
var Names = []string{"adhoc", "dashboard", "ingest", "cluster"}

// Kind discriminates schedule ops.
type Kind string

const (
	Query  Kind = "query"
	Insert Kind = "insert"
	Delete Kind = "delete"
)

// Op is one scheduled request.
type Op struct {
	Kind Kind `json:"kind"`
	// Query fields. Class names the standing query ("ind.k10") for reports.
	Class   string `json:"class,omitempty"`
	R1      string `json:"r1,omitempty"`
	R2      string `json:"r2,omitempty"`
	K       int    `json:"k,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
	// Mutation fields.
	Relation string          `json:"relation,omitempty"`
	Tuples   []dataset.Tuple `json:"tuples,omitempty"`
	IDs      []int           `json:"ids,omitempty"`
	// DueUS is the op's due time in an open-loop round, as an offset from
	// the round's start. Zero in closed-loop rounds.
	DueUS int64 `json:"due_us,omitempty"`
}

// Round is one fixed-size unit of schedule: one op list per client. An
// open-loop round has a single list ordered by DueUS and lasts DurationUS.
type Round struct {
	Clients    [][]Op `json:"clients"`
	DurationUS int64  `json:"duration_us,omitempty"`
}

// Ops counts the round's operations.
func (r Round) Ops() int {
	n := 0
	for _, c := range r.Clients {
		n += len(c)
	}
	return n
}

// Dataset is one generated relation, as registered before the first round.
type Dataset struct {
	Name   string
	Tuples []dataset.Tuple
}

// Sizes scales a workload. Full is what the benchmark measures; Tiny keeps
// the smoke tests under a few seconds.
type Sizes struct {
	// DataSeed seeds every relation's population. It is part of the
	// workload's definition, like N: the run's seed varies everything a
	// client sends (op order, panel choice, which rows are deleted and which
	// parked tuples come back) but not the tuples themselves, because a
	// k-dominant skyline's cost swings by +-25% from one random dataset to
	// the next and would drown the run-to-run spread the benchmark's bounds
	// are set against.
	DataSeed          int64
	N, Groups         int // the ind and corr pairs
	WideN, WideGroups int // the wide pair (cluster)
	// AdhocQueries is the adhoc round length; 15% of them run at k=11.
	AdhocQueries int
	// DashRate is the dashboard's open-loop arrival rate in requests per
	// second; a round is one mutation cycle of DashCycleUS microseconds
	// holding six evenly spaced mutations (so 6 mutations/s at 1 s).
	DashRate    float64
	DashCycleUS int64
	// IngestCycles is the number of 7-op cycles each writer runs per round
	// (a multiple of 4, see ingestCycles), ClusterCycles the number of 22-op
	// cycles.
	IngestCycles  int
	ClusterCycles int
}

// Full is the measured configuration. At DashRate the open-loop generator
// itself fires within a millisecond of when it could (fire_lag_p99); how late
// ops leave after their due time (sched_lag_p99, 3-7 ms) is set by the two
// connections queueing behind 1 MB replies and commits, and does not fall
// with the rate (see bench/README.md).
var Full = Sizes{
	DataSeed: 2,
	N:        1000, Groups: 10, WideN: 2000, WideGroups: 16,
	AdhocQueries: 20, DashRate: 400, DashCycleUS: 1_000_000,
	IngestCycles: 8, ClusterCycles: 1,
}

// Tiny is the smoke-test configuration.
var Tiny = Sizes{
	DataSeed: 1,
	N:        200, Groups: 4, WideN: 240, WideGroups: 6,
	AdhocQueries: 20, DashRate: 100, DashCycleUS: 300_000,
	IngestCycles: 4, ClusterCycles: 1,
}

// StandingQuery is a distinct query the workload keeps asking; the oracle
// checks every one of them pair for pair after the last round.
type StandingQuery struct {
	Class  string
	R1, R2 string
	K      int
}

// Generator emits one workload's rounds in order.
type Generator struct {
	Name     string
	Seed     int64
	Sizes    Sizes
	Datasets []Dataset
	Standing []StandingQuery

	// live is each relation's current rows, in order, and parked the tuples
	// currently outside it. Were inserts fresh random tuples instead, the
	// data would be replaced wholesale within a run (ingest turns its 1000
	// rows over every 25 rounds) and the same query's cost would wander by a
	// factor of up to five between rounds and seeds.
	live, parked map[string][]dataset.Tuple
	next         int
}

// spare is how many tuples of a relation's population start parked: the
// workload's largest insert batch, the fewest that always leaves an insert
// enough to take, so a relation is only ever about that many tuples short
// of its whole population.
func (g *Generator) spare() int {
	if g.Name == "adhoc" || g.Name == "ingest" {
		return 4
	}
	return 16
}

// derive mixes the run seed with a path of tags into an independent stream
// seed, so adding a consumer never shifts the others' inputs.
func derive(seed int64, tags ...any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, t := range tags {
		fmt.Fprintf(h, "/%v", t)
	}
	return int64(h.Sum64() >> 1)
}

// pairSpec describes one generated relation pair.
type pairSpec struct {
	n, groups int
	dist      datagen.Distribution
}

func (g *Generator) pair(name string) pairSpec {
	switch name {
	case "corr":
		return pairSpec{g.Sizes.N, g.Sizes.Groups, datagen.Correlated}
	case "wide":
		return pairSpec{g.Sizes.WideN, g.Sizes.WideGroups, datagen.Independent}
	default:
		return pairSpec{g.Sizes.N, g.Sizes.Groups, datagen.Independent}
	}
}

// New builds the generator and its datasets.
func New(name string, seed int64, sz Sizes) (*Generator, error) {
	g := &Generator{
		Name: name, Seed: seed, Sizes: sz,
		live: make(map[string][]dataset.Tuple), parked: make(map[string][]dataset.Tuple),
	}
	var pairs []string
	switch name {
	case "adhoc":
		pairs = []string{"ind"}
		g.Standing = []StandingQuery{sq("ind", 10), sq("ind", 11)}
	case "dashboard":
		pairs = []string{"ind", "corr"}
		// Zipf order: rank 0 is the hottest panel. ind.k11, the large
		// answer, is scheduled apart at exactly one request in ten.
		g.Standing = []StandingQuery{
			sq("corr", 10), sq("ind", 10), sq("corr", 11), sq("corr", 9),
			sq("ind", 9), sq("corr", 12), sq("ind", 11),
		}
	case "ingest":
		pairs = []string{"ind"}
		g.Standing = []StandingQuery{sq("ind", 10)}
	case "cluster":
		pairs = []string{"wide"}
		g.Standing = []StandingQuery{sq("wide", 10), sq("wide", 11)}
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names)
	}
	for _, p := range pairs {
		spec := g.pair(p)
		for side := 1; side <= 2; side++ {
			rel := fmt.Sprintf("%s.r%d", p, side)
			gen := func(tag string, n int) (*dataset.Relation, error) {
				return datagen.Generate(datagen.Config{
					Name: rel, N: n, Local: Local, Agg: Agg, Groups: spec.groups,
					Dist: spec.dist, Seed: derive(sz.DataSeed, tag, rel),
				})
			}
			data, err := gen("data", spec.n)
			if err != nil {
				return nil, err
			}
			spare, err := gen("spare", g.spare())
			if err != nil {
				return nil, err
			}
			g.Datasets = append(g.Datasets, Dataset{Name: rel, Tuples: data.Rows()})
			g.live[rel], g.parked[rel] = data.Rows(), spare.Rows()
		}
	}
	return g, nil
}

func sq(pair string, k int) StandingQuery {
	return StandingQuery{Class: fmt.Sprintf("%s.k%d", pair, k), R1: pair + ".r1", R2: pair + ".r2", K: k}
}

func (q StandingQuery) op(noCache bool) Op {
	return Op{Kind: Query, Class: q.Class, R1: q.R1, R2: q.R2, K: q.K, NoCache: noCache}
}

// Next emits the next round. Round 0 is the warm-up.
func (g *Generator) Next() Round {
	r := g.next
	g.next++
	rng := rand.New(rand.NewSource(derive(g.Seed, g.Name, "round", r)))
	if r == 0 {
		return g.warmUp(rng)
	}
	switch g.Name {
	case "adhoc":
		return g.adhoc(rng)
	case "dashboard":
		return g.dashboard(rng)
	case "ingest":
		return g.ingestCycles(rng, g.Sizes.IngestCycles)
	default:
		return g.cluster(rng)
	}
}

// warmUp is round 0, played closed loop and unmeasured: every standing query
// once (indexes built, answers cached), one cycle of the workload's
// mutations (cache entries promoted to maintained, versions moved), every
// standing query again. It is deliberately short — set-up is repeated
// several times per run — yet leaves the server in the state the measured
// rounds keep it in.
func (g *Generator) warmUp(rng *rand.Rand) Round {
	noCache := g.Name == "adhoc" || g.Name == "cluster"
	var ops []Op
	ask := func() {
		for _, q := range g.Standing {
			ops = append(ops, q.op(noCache))
		}
	}
	ask()
	switch g.Name {
	case "adhoc":
		ops = append(ops, g.insert(rng, "ind.r1", 4), g.remove(rng, "ind.r1", 4))
	case "dashboard":
		for j := 0; j < 6; j++ {
			ops = append(ops, g.dashMutation(rng, j))
		}
	case "ingest":
		return g.ingestCycles(rng, 1)
	case "cluster":
		ops = append(ops, g.insert(rng, "wide.r1", 16), g.remove(rng, "wide.r1", 16))
	}
	ask()
	return Round{Clients: [][]Op{ops}}
}

// insert emits an insert of b of rel's parked tuples, chosen at random.
func (g *Generator) insert(rng *rand.Rand, rel string, b int) Op {
	parked := g.parked[rel]
	rng.Shuffle(len(parked), func(i, j int) { parked[i], parked[j] = parked[j], parked[i] })
	ts := append([]dataset.Tuple(nil), parked[len(parked)-b:]...)
	g.parked[rel] = parked[:len(parked)-b]
	g.live[rel] = append(g.live[rel], ts...)
	return Op{Kind: Insert, Relation: rel, Tuples: ts}
}

// remove emits a delete of b distinct current rows of rel, ids ascending,
// and parks their tuples.
func (g *Generator) remove(rng *rand.Rand, rel string, b int) Op {
	ids := rng.Perm(len(g.live[rel]))[:b]
	sort.Ints(ids)
	for _, id := range ids {
		g.parked[rel] = append(g.parked[rel], g.live[rel][id])
	}
	op := Op{Kind: Delete, Relation: rel, IDs: ids}
	g.live[rel] = apply(g.live[rel], op)
	return op
}

// adhoc: one analyst, cold queries only (no_cache), 85% at k=10 and 15% at
// k=11 in shuffled order. A 4-tuple insert and a 4-id delete on each side
// per round move the versions, so every round also pays resident rebuilds —
// and every workload reports mutate_p50_ms.
func (g *Generator) adhoc(rng *rand.Rand) Round {
	n := g.Sizes.AdhocQueries
	large := n * 15 / 100
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		q := g.Standing[0]
		if i < large {
			q = g.Standing[1]
		}
		ops = append(ops, q.op(true))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return Round{Clients: [][]Op{g.interleave(rng, ops, "ind", 4)}}
}

// interleave spreads four mutations of b rows through the queries: insert
// and delete on r1, then insert and delete on r2, at the fifths.
func (g *Generator) interleave(rng *rand.Rand, queries []Op, pair string, b int) []Op {
	n := len(queries)
	out := make([]Op, 0, n+4)
	for i, op := range queries {
		for j := 1; j <= 4; j++ {
			if i != j*n/5 {
				continue
			}
			rel := fmt.Sprintf("%s.r%d", pair, (j+1)/2)
			if j%2 == 1 {
				out = append(out, g.insert(rng, rel, b))
			} else {
				out = append(out, g.remove(rng, rel, b))
			}
		}
		out = append(out, op)
	}
	return out
}

// dashboard: open loop at DashRate. Every tenth request is the large panel
// (ind.k11); the rest are Zipf-skewed over the six small panels. Beside
// them six mutations per cycle on corr (one cycle a second at full size): a
// 16-tuple insert and two 8-id deletes on r1, then the same on r2, so row
// counts are stationary and corr's cache entries stay maintained.
func (g *Generator) dashboard(rng *rand.Rand) Round {
	dur := g.Sizes.DashCycleUS
	n := int(g.Sizes.DashRate * float64(dur) / 1e6)
	small := g.Standing[:len(g.Standing)-1]
	largeQ := g.Standing[len(g.Standing)-1]
	cum := make([]float64, len(small))
	total := 0.0
	for i := range small {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	ops := make([]Op, 0, n+6)
	for i := 0; i < n; i++ {
		q := largeQ
		if i%10 != 9 {
			q = small[sort.SearchFloat64s(cum, rng.Float64()*total)]
		}
		op := q.op(false)
		op.DueUS = int64(float64(i) * 1e6 / g.Sizes.DashRate)
		ops = append(ops, op)
	}
	for j := 0; j < 6; j++ {
		op := g.dashMutation(rng, j)
		// Mid-slot and off by a microsecond, so no mutation shares a due
		// time with a query.
		op.DueUS = int64(2*j+1)*dur/12 + 1
		ops = append(ops, op)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].DueUS < ops[j].DueUS })
	return Round{Clients: [][]Op{ops}, DurationUS: dur}
}

// dashMutation is the j-th of a dashboard cycle's six mutations.
func (g *Generator) dashMutation(rng *rand.Rand, j int) Op {
	rel := "corr.r1"
	if j >= 3 {
		rel = "corr.r2"
	}
	if j%3 == 0 {
		return g.insert(rng, rel, 16)
	}
	return g.remove(rng, rel, 8)
}

// ingest: two writers, closed loop; writer A owns ind.r1 and writer B owns
// ind.r2. Per 7-op cycle: 4 single-tuple inserts, one 4-tuple batch and two
// 4-id deletes (row count stationary). Every fourth cycle a writer also asks
// the maintained query at k=10, the two writers two cycles apart: beside
// writes that query nearly always recomputes (11 ms against a 2 ms commit),
// and asked every cycle the recomputes are over half the server's CPU time,
// the two writers' overlap one time in three, and every metric of the run
// spreads twice as wide.
func (g *Generator) ingestCycles(rng *rand.Rand, cycles int) Round {
	clients := make([][]Op, 2)
	for w := range clients {
		rel := fmt.Sprintf("ind.r%d", w+1)
		for c := 0; c < cycles; c++ {
			clients[w] = append(clients[w], g.insert(rng, rel, 1), g.insert(rng, rel, 1))
			if (c+2*w)%4 == 0 {
				clients[w] = append(clients[w], g.Standing[0].op(false))
			}
			clients[w] = append(clients[w],
				g.insert(rng, rel, 1),
				g.remove(rng, rel, 4),
				g.insert(rng, rel, 1),
				g.insert(rng, rel, 4),
				g.remove(rng, rel, 4),
			)
		}
	}
	return Round{Clients: clients}
}

// cluster: one client through the gateway. Per 22-op cycle: 16 cold k=10
// and 2 cold k=11 queries on wide, and a 16-tuple insert and a 16-id delete
// on each side.
func (g *Generator) cluster(rng *rand.Rand) Round {
	var out []Op
	for c := 0; c < g.Sizes.ClusterCycles; c++ {
		ops := make([]Op, 0, 18)
		for i := 0; i < 18; i++ {
			q := g.Standing[0]
			if i < 2 {
				q = g.Standing[1]
			}
			ops = append(ops, q.op(true))
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		out = append(out, g.interleave(rng, ops, "wide", 16)...)
	}
	return Round{Clients: [][]Op{out}}
}
