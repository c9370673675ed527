package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/dom"
	"repro/internal/join"
)

// Delete-side incremental maintenance. Deletions break the insert-
// monotonicity the absorb path is built on, but they break it in exactly
// one direction: removing rows only removes joined pairs, so a dominator
// set can shrink but never grow. Two consequences drive everything here:
//
//   - a surviving skyline member can never be displaced by a delete
//     (its dominators were already empty and stay empty), and
//   - a surviving non-member can re-enter ("resurrect") only if every
//     dominator it had was removed — in particular, at least one removed
//     pair k-dominated it.
//
// The second point is the resurrection filter: RetractBatch's incremental
// arm materializes the removed pairs once (RetractSet), tests each
// non-member candidate against them, and runs the expensive dominator
// verification only on the candidates that pass. Everything else is
// bookkeeping — evicting members that reference deleted rows and
// renumbering the survivors to the relation's post-delete IDs.

// RetractSet is the set of joined pairs a batch delete removed from a
// query's join, organized for the resurrection filter: pairs are grouped
// by their deleted component, each group keyed by that component's base
// attributes so one local-prefix reachability test (the same bound
// checker.dominates hoists) can skip the whole group. The pairs are
// materialized on the first Dominated call, so a batch RetractBatch
// recomputes never pays for them. A set is not safe for concurrent use.
type RetractSet struct {
	// q, del and the sides (onL, onR) are NewRetractSet's inputs; built
	// marks the thresholds and groups below as materialized.
	q          Query
	del        *dataset.Relation
	onL, onR   bool
	built      bool
	k1pp, k2pp int
	// left groups pairs by a deleted R1-side row, right by a deleted
	// R2-side row; a self-join's deleted×deleted pairs live in left.
	left, right []retractGroup
}

type retractGroup struct {
	// local is the deleted component's base attribute vector; its local
	// prefix bounds what any pair in the group can dominate.
	local []float64
	sum   float64
	pairs [][]float64
}

// SnapshotRows materializes the given rows of r as a standalone relation
// with r's schema, in id order, with detached attribute storage — the
// pre-delete snapshot NewRetractSet runs against. ids must be valid rows.
func SnapshotRows(r *dataset.Relation, ids []int) *dataset.Relation {
	ts := make([]dataset.Tuple, len(ids))
	for i, id := range ids {
		t := r.Tuple(id)
		t.Attrs = append([]float64(nil), t.Attrs...)
		ts[i] = t
	}
	del, err := dataset.New(r.Name+" (deleted)", r.Local, r.Agg, ts)
	if err != nil {
		// The rows passed this same validation when they entered r.
		panic(fmt.Sprintf("core: snapshot of %s rows failed validation: %v", r.Name, err))
	}
	return del
}

// NewRetractSet records what the resurrection filter needs to enumerate
// the joined pairs a DeleteBatch removed from q's join. q must be the
// post-delete query (relations already compacted, and still so when
// RetractBatch runs) and del a snapshot of the deleted rows (SnapshotRows,
// taken before the physical delete); left/right say which sides of the
// query the mutated relation occupies (both, for a self-join).
func NewRetractSet(q Query, left, right bool, del *dataset.Relation) *RetractSet {
	return &RetractSet{q: q, del: del, onL: left, onR: right}
}

// materialize enumerates the removed pairs. They decompose into
// deleted×survivors, survivors×deleted and — for a self-join —
// deleted×deleted; each part is enumerated by indexing the small deleted
// set (under the reversed condition where the probe direction flips) and
// probing it from the big surviving relation, so the cost is
// O(n log |del| + removed pairs), never O(n²).
func (rs *RetractSet) materialize() {
	q, del := rs.q, rs.del
	agg := q.aggregator()
	rs.k1pp, rs.k2pp = q.KDoublePrimes()
	rs.built = true
	w := join.Width(q.R1, q.R2)
	if rs.onL {
		byU := make([][][]float64, del.Len())
		// Index del under the reversed condition and probe it by each
		// surviving R2 row: Partners answers "which deleted u join with
		// this v", covering del × R2 without indexing the big side.
		ix := join.NewFullIndex(q.R2, del, q.Spec.Cond.Reversed())
		all2 := allIndices(q.R2.Len())
		arena := make([]float64, ix.CountPairs(q.R2, all2)*w)
		pos := 0
		ix.ForEachPair(q.R2, all2, func(j, u int) bool {
			byU[u] = append(byU[u], join.CombineAt(del, q.R2, u, j, agg, arena[pos:pos:pos+w]))
			pos += w
			return false
		})
		if rs.onR {
			// Self-join: both deleted rows of a deleted×deleted pair are
			// gone from the survivors, so neither sweep above saw it.
			ixd := join.NewFullIndex(del, del, q.Spec.Cond)
			alld := allIndices(del.Len())
			tail := make([]float64, ixd.CountPairs(del, alld)*w)
			pos = 0
			ixd.ForEachPair(del, alld, func(u, v int) bool {
				byU[u] = append(byU[u], join.CombineAt(del, del, u, v, agg, tail[pos:pos:pos+w]))
				pos += w
				return false
			})
		}
		rs.left = packRetractGroups(del, byU)
	}
	if rs.onR {
		byV := make([][][]float64, del.Len())
		// Natural probe direction: index del as the right side, probe by
		// each surviving R1 row.
		ix := join.NewFullIndex(q.R1, del, q.Spec.Cond)
		all1 := allIndices(q.R1.Len())
		arena := make([]float64, ix.CountPairs(q.R1, all1)*w)
		pos := 0
		ix.ForEachPair(q.R1, all1, func(i, v int) bool {
			byV[v] = append(byV[v], join.CombineAt(q.R1, del, i, v, agg, arena[pos:pos:pos+w]))
			pos += w
			return false
		})
		rs.right = packRetractGroups(del, byV)
	}
}

// packRetractGroups turns the per-deleted-row pair lists into the sorted
// group form Dominated scans: groups ascending by their component's
// attribute sum, pairs within a group ascending by combined sum, so the
// strongest dominators are met first.
func packRetractGroups(del *dataset.Relation, byRow [][][]float64) []retractGroup {
	groups := make([]retractGroup, 0, len(byRow))
	for id, pairs := range byRow {
		if len(pairs) == 0 {
			continue
		}
		sort.Slice(pairs, func(a, b int) bool { return sumOf(pairs[a]) < sumOf(pairs[b]) })
		groups = append(groups, retractGroup{
			local: del.Attrs(id),
			sum:   sumOf(del.Attrs(id)),
			pairs: pairs,
		})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].sum < groups[b].sum })
	return groups
}

// Dominated reports whether any removed pair k-dominates cand, a combined
// attribute vector in the engine's [left locals, right locals, aggregates]
// layout. A non-member can resurrect after the delete only if this is true
// (all its dominators were removed, and it had at least one); candidates
// that fail skip dominator verification entirely.
func (rs *RetractSet) Dominated(cand []float64) bool {
	if !rs.built {
		rs.materialize()
	}
	k, l1, l2 := rs.q.K, rs.q.R1.Local, rs.q.R2.Local
	for gi := range rs.left {
		g := &rs.left[gi]
		if _, _, ok := localPrefix(g.local, cand, l1, rs.k1pp); !ok {
			continue
		}
		for _, pa := range g.pairs {
			if dom.KDominates(pa, cand, k) {
				return true
			}
		}
	}
	for gi := range rs.right {
		g := &rs.right[gi]
		// The deleted component sits on the right: its locals line up with
		// cand[l1:l1+l2], and the reachability threshold is k2''.
		if _, _, ok := localPrefix(g.local, cand[l1:], l2, rs.k2pp); !ok {
			continue
		}
		for _, pa := range g.pairs {
			if dom.KDominates(pa, cand, k) {
				return true
			}
		}
	}
	return false
}

// RetractBatch folds an already-executed DeleteBatch into the skyline: the
// caller has removed rows ids (pre-delete IDs, strictly ascending — the
// slice handed to dataset.Relation.DeleteBatch) from the relation on the
// given side(s) of the query; left and right are both true for a
// self-join, whose one physical delete shrinks both sides at once. rs is
// the batch's NewRetractSet over the post-delete query and a pre-delete
// SnapshotRows of the deleted rows; only the incremental arm reads it.
//
// Members that reference a deleted row are evicted and the survivors
// renumbered to the post-delete IDs; surviving members are kept without
// re-verification (a delete only shrinks dominator sets). A large batch
// (largeBatch) then recomputes; any other runs resurrect, which sweeps the
// resurrection candidates — non-members some removed pair dominated —
// through the same categorize/verify cells the grouping recompute would
// run, so the resulting skyline is identical to a from-scratch recompute.
// It returns the number of members evicted (their rows deleted) and the
// number of non-members resurrected.
//
// Like the absorb path, RetractBatch uses the resident handed to
// UseResident only when it matches the post-delete relations; the caller
// that retracted the resident must hand it over after the physical delete.
func (m *Maintainer) RetractBatch(left, right bool, ids []int, rs *RetractSet) (evicted, resurrected int, err error) {
	if m.closed {
		return 0, 0, ErrMaintainerClosed
	}
	if len(ids) == 0 || (!left && !right) {
		return 0, 0, nil
	}
	if rs == nil {
		return 0, 0, errors.New("core: RetractBatch needs the batch's RetractSet")
	}
	rel := m.rel(left)
	preLen := rel.Len() + len(ids)
	for i, id := range ids {
		if id < 0 || id >= preLen || (i > 0 && id <= ids[i-1]) {
			return 0, 0, fmt.Errorf("core: retract ids must be strictly ascending pre-delete row IDs in [0,%d)", preLen)
		}
	}
	evicted = m.evict(left, right, ids)
	if largeBatch(len(ids), rel.Len()) {
		_, resurrected, err = m.recomputeDiff(m.resident())
	} else {
		resurrected = m.resurrect(m.resident(), rs)
	}
	return evicted, resurrected, err
}

// evict drops the members that reference a deleted row, renumbers the
// survivors to post-delete IDs and returns how many it dropped.
func (m *Maintainer) evict(left, right bool, ids []int) (evicted int) {
	renum := func(id int) (int, bool) {
		i := sort.SearchInts(ids, id)
		if i < len(ids) && ids[i] == id {
			return 0, false
		}
		return id - i, true
	}
	next := make(map[[2]int]join.Pair, len(m.sky))
	for key, p := range m.sky {
		l, r := key[0], key[1]
		keep := true
		if left {
			l, keep = renum(l)
		}
		if keep && right {
			r, keep = renum(r)
		}
		if !keep {
			evicted++
			continue
		}
		p.Left, p.Right = l, r
		next[[2]int{l, r}] = p
	}
	m.sky = next
	return evicted
}

// resurrect is RetractBatch's incremental arm: it enumerates the
// recompute's cells, but only verifies non-members the removed pairs
// dominated — everything else keeps its pre-delete verdict — each against
// its target sets τ(u) ⋈ τ(v), built only for the vectors that need one.
func (m *Maintainer) resurrect(res *Resident, rs *RetractSet) (resurrected int) {
	st := Stats{}
	e := newEngineResident(m.q, &st, res)
	ts := newTargetSets(e)
	defer ts.publish()
	c1, c2 := ts.categorization(Left), ts.categorization(Right)
	chk := &checker{e: e}
	cells := []struct {
		left, right []int
		yes         bool
	}{
		{c1.SS, c2.SS, true},
		{c1.SS, c2.SN, false},
		{c1.SN, c2.SS, false},
		{c1.SN, c2.SN, false},
	}
	for _, cell := range cells {
		candidates := e.pairs(cell.left, cell.right)
		if cell.yes && e.a < 2 {
			// Unchecked cell: every pair is a member by the paper's
			// theorem, so any non-member here resurrects outright.
			for _, p := range candidates {
				key := [2]int{p.Left, p.Right}
				if _, ok := m.sky[key]; !ok {
					m.sky[key] = detach(p)
					resurrected++
				}
			}
			continue
		}
		for _, p := range candidates {
			key := [2]int{p.Left, p.Right}
			if _, ok := m.sky[key]; ok {
				continue // surviving member: cannot be displaced by a delete
			}
			if !rs.Dominated(p.Attrs) {
				continue
			}
			chk.use(ts.of(p.Attrs))
			if !chk.dominates(p.Attrs) {
				m.sky[key] = detach(p)
				resurrected++
			}
		}
	}
	return resurrected
}
