package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/bench/loadgen"
	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/store"
)

// observations collects, per metric and op class, the values a traced run
// measured; per-layer metrics are medians (or sums) over them.
type observations struct {
	m map[string]map[string][]float64
}

func newObservations() *observations {
	return &observations{m: make(map[string]map[string][]float64)}
}

func (o *observations) add(metric, class string, v float64) {
	if o.m[metric] == nil {
		o.m[metric] = make(map[string][]float64)
	}
	o.m[metric][class] = append(o.m[metric][class], v)
}

// values pools a metric's observations over the classes pick accepts.
func (o *observations) values(metric string, pick func(class string) bool) []float64 {
	var out []float64
	for class, vs := range o.m[metric] {
		if pick(class) {
			out = append(out, vs...)
		}
	}
	return out
}

func (o *observations) median(metric string, pick func(string) bool) float64 {
	return loadgen.Median(o.values(metric, pick))
}

func (o *observations) sum(metric string, pick func(string) bool) float64 {
	total := 0.0
	for _, v := range o.values(metric, pick) {
		total += v
	}
	return total
}

func anyClass(string) bool { return true }

// opClass names an op's class: "q:ind.k10", "insert1", "delete4".
func opClass(op workload.Op) string {
	if op.Kind == workload.Query {
		return "q:" + op.Class
	}
	return fmt.Sprintf("%s%d", op.Kind, len(op.Tuples)+len(op.IDs))
}

func isQuery(class string) bool    { return strings.HasPrefix(class, "q:") }
func isMutation(class string) bool { return !isQuery(class) }

// rawTwin is the layers below the service, assembled by hand from their
// public constructors over a seed-identical copy of the data. The same ops
// the service receives are replayed on it one public call at a time —
// dataset append, WAL append and sync, resident absorb, maintainer absorb —
// so each call can be timed from outside; what the service's own span has
// beyond their sum is the service's self time.
type rawTwin struct {
	tr    *tracer
	obs   *observations
	rels  map[string]*dataset.Relation
	pairs map[string]*rawPair // by relation name, both sides
	st    *store.Store        // nil unless the workload is durable
	// loggedUser counts the user bytes of the mutations logged since the
	// last checkpoint, the denominator of WAL amplification.
	loggedUser int64
}

// rawPair is one relation pair's resident structures.
type rawPair struct {
	r1, r2 *dataset.Relation
	res    *core.Resident
	ix     *join.Index
	maint  map[int]*core.Maintainer // by k, one per standing query
}

func (p *rawPair) query(k int) core.Query {
	return core.Query{R1: p.r1, R2: p.r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: k}
}

func newRawTwin(tr *tracer, obs *observations, gen *workload.Generator, storeDir string) (*rawTwin, error) {
	t := &rawTwin{tr: tr, obs: obs, rels: make(map[string]*dataset.Relation), pairs: make(map[string]*rawPair)}
	for _, d := range gen.Datasets {
		r, err := dataset.New(d.Name, workload.Local, workload.Agg, d.Tuples)
		if err != nil {
			return nil, err
		}
		t.rels[d.Name] = r
	}
	for _, q := range gen.Standing {
		p := t.pairs[q.R1]
		if p == nil {
			p = &rawPair{r1: t.rels[q.R1], r2: t.rels[q.R2], maint: make(map[int]*core.Maintainer)}
			var err error
			if p.res, err = core.NewResident(p.query(q.K)); err != nil {
				return nil, err
			}
			p.ix = join.NewFullIndex(p.r1, p.r2, join.Equality)
			t.pairs[q.R1], t.pairs[q.R2] = p, p
		}
		out, err := p.res.Exec(context.Background(), p.query(q.K), core.ExecOptions{Algorithm: core.Grouping})
		if err != nil {
			return nil, err
		}
		if p.maint[q.K], err = core.NewMaintainerFrom(p.query(q.K), out.Skyline); err != nil {
			return nil, err
		}
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		t.st = st
		for _, d := range gen.Datasets {
			seq, err := st.Append(store.Record{Type: store.RecRegister, Relation: d.Name, Rel: t.rels[d.Name]})
			if err == nil {
				err = st.Sync(seq)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *rawTwin) close() {
	if t.st != nil {
		t.st.Close()
	}
}

// miss replays a query the service had to compute.
func (t *rawTwin) miss(op workload.Op, req, class string) (childUS float64, err error) {
	p := t.pairs[op.R1]
	return observeMiss(t.tr, t.obs, p.res, p.query(op.K), "service.Query", req, class)
}

// observeMiss times what computing q costs below the service — the planner's
// choice, then the engine's run over the resident structures — and files the
// engine's own phase breakdown and work counts.
func observeMiss(tr *tracer, obs *observations, res *core.Resident, q core.Query, parent, req, class string) (childUS float64, err error) {
	ctx := context.Background()
	var plan *planner.Plan
	chooseUS := tr.time("planner.Choose", parent, req, class, func() {
		plan, err = planner.Choose(ctx, q, planner.Options{})
	})
	if err != nil {
		return 0, err
	}
	var out *core.Result
	execUS := tr.time("core.Exec", parent, req, class, func() {
		out, err = res.Exec(ctx, q, core.ExecOptions{Algorithm: plan.Algorithm})
	})
	if err != nil {
		return 0, err
	}
	if tr.on.Load() {
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		obs.add("planner.choose", class, chooseUS)
		obs.add("core.exec", class, execUS)
		obs.add("core.grouping", class, us(out.Stats.GroupingTime))
		obs.add("core.join", class, us(out.Stats.JoinTime))
		obs.add("core.verify", class, us(out.Stats.RemainingTime))
		obs.add("core.domtests", class, float64(out.Stats.DominationTests))
		obs.add("core.candidates", class, float64(out.Stats.Candidates))
	}
	return chooseUS + execUS, nil
}

// mutate replays an insert or delete call by call and returns the summed
// time of the calls the service's commit makes below itself.
func (t *rawTwin) mutate(op workload.Op, req, class string) (childUS float64, err error) {
	p := t.pairs[op.Relation]
	rel := t.rels[op.Relation]
	side, left := core.Right, rel == p.r1
	if left {
		side = core.Left
	}
	on := t.tr.on.Load()
	step := func(name string, fn func()) float64 {
		us := t.tr.time(name, "service.commit", req, class, fn)
		childUS += us
		return us
	}
	rec := store.Record{Relation: op.Relation}
	var ids []int
	var del *dataset.Relation
	if op.Kind == workload.Insert {
		rec.Type, rec.Tuples = store.RecInsert, op.Tuples
		us := step("dataset.AppendBatch", func() {
			var first int
			if first, err = rel.AppendBatch(op.Tuples); err == nil {
				ids = make([]int, len(op.Tuples))
				for i := range ids {
					ids[i] = first + i
				}
			}
		})
		if on {
			t.obs.add("dataset.append_ns_per_tuple", class, us*1000/float64(len(op.Tuples)))
		}
		t.loggedUser += workload.UserBytes(op.Tuples)
	} else {
		rec.Type, rec.IDs = store.RecDelete, op.IDs
		ids = op.IDs
		step("core.SnapshotRows", func() { del = core.SnapshotRows(rel, ids) })
		us := step("dataset.DeleteBatch", func() { err = rel.DeleteBatch(ids) })
		if on {
			t.obs.add("dataset.delete_us_per_batch", class, us)
		}
		t.loggedUser += 8 * int64(len(ids))
	}
	if err != nil {
		return 0, err
	}
	if t.st != nil {
		var seq uint64
		us := step("store.Append", func() { seq, err = t.st.Append(rec) })
		if err != nil {
			return 0, err
		}
		if on {
			t.obs.add("store.append", class, us)
		}
		us = step("store.Sync", func() { err = t.st.Sync(seq) })
		if err != nil {
			return 0, err
		}
		if on {
			t.obs.add("store.sync", class, us)
		}
	}
	// The join layer on its own: the full-R2 index the resident holds is
	// extended or retracted inside Resident.Absorb/Retract, so this twin
	// index is timed beside the commit, not counted into it.
	if !left {
		name, metric := "join.Index.Extend", "join.extend_us_per_row"
		fn := func() { p.ix.Extend(ids) }
		if op.Kind == workload.Delete {
			name, metric = "join.Index.Retract", "join.retract_us_per_row"
			fn = func() { p.ix.Retract(ids) }
		}
		us := t.tr.time(name, "", req, class, fn)
		if on {
			t.obs.add(metric, class, us/float64(len(ids)))
		}
	}
	if op.Kind == workload.Insert {
		step("core.Resident.Absorb", func() { err = p.res.Absorb(side, ids) })
	} else {
		step("core.Resident.Retract", func() { err = p.res.Retract(side, ids) })
	}
	if err != nil {
		return 0, err
	}
	maintUS := 0.0
	for k, m := range p.maint {
		m.UseResident(p.res)
		if op.Kind == workload.Insert {
			maintUS += step("core.Maintainer.AbsorbBatch", func() { _, _, err = m.AbsorbBatch(side, ids) })
		} else {
			maintUS += step("core.Maintainer.RetractBatch", func() {
				rs := core.NewRetractSet(p.query(k), left, !left, del)
				_, _, err = m.RetractBatch(left, !left, ids, rs)
			})
		}
		if err != nil {
			return 0, err
		}
	}
	if on && len(p.maint) > 0 {
		metric := "core.absorb_us_per_tuple"
		if op.Kind == workload.Delete {
			metric = "core.retract_us_per_row"
		}
		t.obs.add(metric, class, maintUS/float64(len(ids)))
	}
	return childUS, nil
}

// perRound times the builds a commit normally avoids and a restart or a
// version move pays: a resident from scratch, a join index from scratch,
// and — durable workloads — a checkpoint with its amplification counts.
func (t *rawTwin) perRound(round int) error {
	req := fmt.Sprintf("%d.build", round)
	seen := make(map[*rawPair]bool)
	for _, p := range t.pairs {
		if seen[p] {
			continue
		}
		seen[p] = true
		var err error
		us := t.tr.time("core.NewResident", "", req, "build", func() { _, err = core.NewResident(p.query(0)) })
		if err != nil {
			return err
		}
		t.obs.add("core.resident_build", "build", us)
		us = t.tr.time("join.NewFullIndex", "", req, "build", func() { join.NewFullIndex(p.r1, p.r2, join.Equality) })
		t.obs.add("join.index_build", "build", us)
	}
	if t.st == nil {
		return nil
	}
	if t.loggedUser > 0 {
		t.obs.add("store.wal_bytes_per_user_byte", "build", float64(t.st.Stats().WALBytes)/float64(t.loggedUser))
	}
	var rels []store.CheckpointRelation
	var live int64
	for name, r := range t.rels {
		rels = append(rels, store.CheckpointRelation{Name: name, Version: 1, Cols: r.SnapshotColumns()})
		live += workload.UserBytes(r.Rows())
	}
	var err error
	us := t.tr.time("store.Checkpoint", "", req, "build", func() { err = t.st.Checkpoint(rels, nil) })
	if err != nil {
		return err
	}
	t.loggedUser = 0
	t.obs.add("store.checkpoint_ms", "build", us/1000)
	segs, err := filepath.Glob(filepath.Join(t.st.Dir(), "seg-*"))
	if err != nil {
		return err
	}
	var segBytes int64
	for _, f := range segs {
		info, err := os.Stat(f)
		if err != nil {
			return err
		}
		segBytes += info.Size()
	}
	t.obs.add("store.segment_bytes_per_user_byte", "build", float64(segBytes)/float64(live))
	return nil
}

// checkAgainst verifies the twin still holds what the mirror holds: each
// maintainer's skyline must have the size a recompute over the mirror has,
// or the twin's timings describe some other computation.
func (t *rawTwin) checkAgainst(s *session) error {
	for _, q := range s.gen.Standing {
		_, issued := s.mirror.Versions(q.R1, q.R2)
		want, err := s.check.Expected(q, issued)
		if err != nil {
			return err
		}
		if got := t.pairs[q.R1].maint[q.K].Len(); got != len(want) {
			return fmt.Errorf("raw twin drifted: %s holds %d pairs, the mirror's recompute %d", q.Class, got, len(want))
		}
	}
	return nil
}

// directTwin is a second service, seed-identical to the one behind the
// HTTP handler, that the benchmark calls directly: the span around
// Service.Query is what the handler's span holds beyond its own work.
type directTwin struct {
	tr  *tracer
	obs *observations
	svc *service.Service
	raw *rawTwin
}

func (d *directTwin) register(gen *workload.Generator) error {
	for _, ds := range gen.Datasets {
		r, err := dataset.New(ds.Name, workload.Local, workload.Agg, ds.Tuples)
		if err != nil {
			return err
		}
		if _, err := d.svc.Register(ds.Name, r); err != nil {
			return err
		}
	}
	return nil
}

// replay performs one op directly on the twin service, then call by call on
// the raw twin, and returns the service span's duration.
func (d *directTwin) replay(op workload.Op, req string) (serviceUS float64, source string, err error) {
	class := opClass(op)
	on := d.tr.on.Load()
	if op.Kind == workload.Query {
		var resp *service.QueryResponse
		serviceUS = d.tr.time("service.Query", "handler", req, class, func() {
			resp, err = d.svc.Query(context.Background(), service.QueryRequest{
				R1: op.R1, R2: op.R2, K: op.K, Algorithm: "auto", NoCache: op.NoCache,
			})
		})
		if err != nil {
			return 0, "", err
		}
		if resp.Source != service.SourceComputed {
			if on {
				d.obs.add("service.hit", class, serviceUS)
			}
			return serviceUS, string(resp.Source), nil
		}
		childUS, err := d.raw.miss(op, req, class)
		if err != nil {
			return 0, "", err
		}
		if on {
			d.obs.add("service.miss_self", class, serviceUS-childUS)
		}
		return serviceUS, string(resp.Source), nil
	}
	serviceUS = d.tr.time("service.commit", "handler", req, class, func() {
		if op.Kind == workload.Insert {
			_, err = d.svc.InsertBatch(op.Relation, op.Tuples)
		} else {
			_, err = d.svc.DeleteBatch(op.Relation, op.IDs)
		}
	})
	if err != nil {
		return 0, "", err
	}
	childUS, err := d.raw.mutate(op, req, class)
	if err != nil {
		return 0, "", err
	}
	if on {
		d.obs.add("service.commit_self", class, serviceUS-childUS)
		d.obs.add("service.commit_children", class, childUS)
	}
	return serviceUS, "", nil
}

// groupCommit measures what concurrent committers gain from the WAL's group
// commit: commits per second with two goroutines over one, and how many
// fsyncs a commit costs when two overlap.
func groupCommit(dir string, tuple dataset.Tuple) (gain, syncsPerCommit float64, err error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	const commits = 400
	rec := store.Record{Type: store.RecInsert, Relation: "r", Tuples: []dataset.Tuple{tuple}}
	run := func(goroutines int) (time.Duration, error) {
		var order sync.Mutex // the service appends under its commit lock; the fsync waits outside it
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < commits/goroutines; i++ {
					order.Lock()
					seq, err := st.Append(rec)
					order.Unlock()
					if err == nil {
						err = st.Sync(seq)
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	one, err := run(1)
	if err != nil {
		return 0, 0, err
	}
	before := st.Stats().WALSyncs
	two, err := run(2)
	if err != nil {
		return 0, 0, err
	}
	return float64(one) / float64(two), float64(st.Stats().WALSyncs-before) / commits, nil
}

// copyDir copies a flat directory of regular files (a store's data dir).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
