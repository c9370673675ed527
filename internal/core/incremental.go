package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/join"
)

// Maintainer keeps a KSJQ answer current while base tuples are inserted —
// the update-heavy setting the paper cites as related work (Siddique &
// Morimoto, DBKDA'10) and a natural operational need for a system that
// serves the query continuously.
//
// Insertions are genuinely incremental because k-dominant skylines are
// insert-monotone: an existing dominator never disappears, so a
// non-skyline tuple can never resurface. One insert into R1 costs
//
//	|new pairs| target-checked against the (updated) full join, plus
//	|current skyline| × |new pairs| displacement tests,
//
// instead of recomputing from scratch. Deletions break monotonicity in the
// opposite direction — removing a dominator can resurrect previously
// dominated tuples, but can never displace a surviving member — so
// Delete*/RetractBatch evict members referencing deleted rows and
// re-verify only the resurrection candidates some removed pair dominated
// (see retract.go). In both directions a batch large relative to the
// relation is folded in by a full recompute instead (largeBatch).
type Maintainer struct {
	q      Query
	sky    map[[2]int]join.Pair
	closed bool
	// res optionally shares prebuilt index structures with absorb (see
	// UseResident); ignored whenever it no longer matches the relations.
	res *Resident
	// stats accumulates incremental work since construction.
	inserted   int
	recomputes int
}

// ErrMaintainerClosed is returned by every mutating method after Close.
// Closing releases the maintained skyline; a closed maintainer cannot be
// reopened — build a new one.
var ErrMaintainerClosed = errors.New("core: maintainer closed")

// NewMaintainer computes the initial answer with the grouping algorithm
// and returns a maintainer positioned on it. The relations inside q are
// owned by the maintainer afterwards: callers must not mutate them except
// through Insert/Delete (or Append + AbsorbBatch when an external writer
// shares the relations).
func NewMaintainer(q Query) (*Maintainer, error) {
	res, err := Run(q, Grouping)
	if err != nil {
		return nil, err
	}
	return newMaintainer(q, res.Skyline), nil
}

// NewMaintainerFrom returns a maintainer positioned on a previously
// computed answer instead of recomputing it: skyline must be exactly the
// k-dominant skyline of q as the relations currently stand (e.g. a result
// the answer cache is holding at the relations' current version). The cost
// is one validation plus copying the skyline — this is how the query
// service promotes a cached answer to a live-maintained one for free when
// the first insert arrives.
func NewMaintainerFrom(q Query, skyline []join.Pair) (*Maintainer, error) {
	if err := q.Validate(Grouping); err != nil {
		return nil, err
	}
	return newMaintainer(q, skyline), nil
}

func newMaintainer(q Query, skyline []join.Pair) *Maintainer {
	m := &Maintainer{q: q, sky: make(map[[2]int]join.Pair, len(skyline))}
	for _, p := range skyline {
		// Detach from whatever arena the caller's result lives in: the
		// skyline map is long-lived.
		m.sky[[2]int{p.Left, p.Right}] = detach(p)
	}
	return m
}

// Close releases the maintained skyline and marks the maintainer closed:
// every later mutating call returns ErrMaintainerClosed, and Skyline
// returns nil (distinguishable from a legitimately empty answer, which is
// a non-nil empty slice). Close is idempotent and always returns nil; the
// error return exists so io.Closer-shaped call sites compose.
func (m *Maintainer) Close() error {
	m.closed = true
	m.sky = nil
	m.res = nil // don't pin shared index structures past the lifecycle
	return nil
}

// Closed reports whether Close has been called.
func (m *Maintainer) Closed() bool { return m.closed }

// InsertLeft adds a tuple to R1 and updates the skyline. The tuple's ID is
// assigned by the maintainer. It returns the number of skyline tuples
// displaced and the number of new pairs admitted.
func (m *Maintainer) InsertLeft(t dataset.Tuple) (displaced, admitted int, err error) {
	return m.insert(t, Left)
}

// InsertRight adds a tuple to R2 and updates the skyline.
func (m *Maintainer) InsertRight(t dataset.Tuple) (displaced, admitted int, err error) {
	return m.insert(t, Right)
}

// insert appends t to one side's relation and absorbs it as a one-tuple
// batch.
func (m *Maintainer) insert(t dataset.Tuple, side Side) (displaced, admitted int, err error) {
	if m.closed {
		return 0, 0, ErrMaintainerClosed
	}
	id, err := m.rel(side == Left).Append(t)
	if err != nil {
		return 0, 0, err
	}
	return m.AbsorbBatch(side, []int{id})
}

// rel returns R1 for the left side, R2 for the right.
func (m *Maintainer) rel(left bool) *dataset.Relation {
	if left {
		return m.q.R1
	}
	return m.q.R2
}

// UseResident lets the next absorbs reuse prebuilt index structures (a
// Resident over the relations' current, post-append state) instead of
// rebuilding the full-R2 index and probe orders per call — writers that
// fan one insert out to many maintainers over the same relation pair
// build one Resident and hand it to all of them. A resident that no
// longer matches the relations (after any further insert or delete) is
// ignored, never an error.
func (m *Maintainer) UseResident(res *Resident) { m.res = res }

// resident returns the resident handed to UseResident if it still matches
// the relations, nil otherwise.
func (m *Maintainer) resident() *Resident {
	if m.res != nil && !m.res.matches(m.q) {
		return nil
	}
	return m.res
}

// largeBatch is the hybrid rule, the one place AbsorbBatch and RetractBatch
// choose between their incremental arm and recomputeDiff: a batch of b rows
// against a relation of n rows (post-append or post-delete) is recomputed
// from scratch when b·8 ≥ n. The incremental arms pay per new or removed
// pair, so their cost grows with the batch while a recompute's is fixed;
// BenchmarkMaintainerArms measures both arms on each side of the rule.
func largeBatch(b, n int) bool { return b*8 >= n }

// AbsorbBatch folds into the skyline a batch of tuples an external writer
// already appended to one side's relation (via Relation.Append or
// AppendBatch): ids are the appended row indices, each absorbed exactly
// once, in append order. It exists for writers that fan one physical
// insert out to several maintainers sharing a relation — the query
// service's insert path: one writer appends, every maintainer absorbs. A
// large batch (largeBatch) is folded in by recomputeDiff, any other by
// absorbIncremental. The resulting skyline is identical to sequential
// per-id absorbs; the (displaced, admitted) totals can group differently —
// a pair a sequential run would admit and then displace within the same
// batch is simply never admitted here.
func (m *Maintainer) AbsorbBatch(side Side, ids []int) (displaced, admitted int, err error) {
	if m.closed {
		return 0, 0, ErrMaintainerClosed
	}
	left := side == Left
	r := m.rel(left)
	for _, id := range ids {
		if id < 0 || id >= r.Len() {
			return 0, 0, fmt.Errorf("core: absorb index %d out of range [0,%d)", id, r.Len())
		}
	}
	if len(ids) == 0 {
		return 0, 0, nil
	}
	m.inserted += len(ids)
	if largeBatch(len(ids), r.Len()) {
		return m.recomputeDiff(m.resident())
	}
	displaced, admitted = m.absorbIncremental(m.resident(), ids, left)
	return displaced, admitted, nil
}

// absorbIncremental is AbsorbBatch's incremental arm: one engine, one
// materialization of all new pairs, one displacement loop testing the
// current members against them, and one admission loop testing them
// against the updated join — the per-insert setup paid once per batch.
func (m *Maintainer) absorbIncremental(res *Resident, ids []int, left bool) (displaced, admitted int) {
	// New joined pairs introduced by the batch. For a left batch that is
	// ids × R2 — which, R2 including any rows this same physical batch
	// appended there (self-join), covers the new×new pairs too.
	st := Stats{}
	e := newEngineResident(m.q, &st, res)
	all1 := allIndices(m.q.R1.Len())
	all2 := allIndices(m.q.R2.Len())
	var newPairs []join.Pair
	if left {
		newPairs = e.pairs(ids, all2)
	} else {
		newPairs = e.pairs(all1, ids)
	}
	if len(newPairs) == 0 {
		return 0, 0
	}

	// Displacement: an existing member leaves exactly when some new pair
	// k-dominates it, and a checker restricted to the batch's side
	// enumerates precisely the new pairs — its partner list is resolved
	// once, so every current member is tested against the new pairs alone
	// instead of probing the full join.
	if len(m.sky) > 0 {
		var chk *checker
		if left {
			chk = e.newChecker(ids, all2)
		} else {
			chk = e.newChecker(all1, ids)
		}
		for key, p := range m.sky {
			if chk.dominates(p.Attrs) {
				delete(m.sky, key)
				displaced++
			}
		}
	}

	// Admission: new pairs not k-dominated by any pair of the updated
	// join (the checker's target pruning applies as usual).
	chk := e.newChecker(all1, all2)
	for _, np := range newPairs {
		if chk.dominates(np.Attrs) {
			continue
		}
		key := [2]int{np.Left, np.Right}
		// Count only genuinely new members: a self-join absorbs the
		// (new, new) pair from both sides, and it must not show up as
		// two admissions.
		if _, ok := m.sky[key]; !ok {
			admitted++
		}
		// Detach from the per-batch materialization arena: the skyline
		// map is long-lived and must not pin the whole batch's pairs.
		m.sky[key] = detach(np)
	}
	return displaced, admitted
}

// recomputeDiff repositions the maintainer on a from-scratch grouping run
// — the large-batch arm of AbsorbBatch and RetractBatch — and derives the
// displaced/admitted counts by diffing the old and new member sets. The
// counts are exactly what the incremental arms would report: after an
// append every member that leaves was displaced and every member that
// appears is newly admitted; after a delete (the evicted members already
// gone) nothing leaves and every member that appears resurrected.
func (m *Maintainer) recomputeDiff(res *Resident) (displaced, admitted int, err error) {
	var out *Result
	if res != nil {
		out, err = res.Exec(context.Background(), m.q, ExecOptions{Algorithm: Grouping})
	} else {
		out, err = Run(m.q, Grouping)
	}
	if err != nil {
		return 0, 0, err
	}
	m.recomputes++
	next := make(map[[2]int]join.Pair, len(out.Skyline))
	for _, p := range out.Skyline {
		key := [2]int{p.Left, p.Right}
		if _, ok := m.sky[key]; !ok {
			admitted++
		}
		next[key] = detach(p)
	}
	displaced = len(m.sky) + admitted - len(next)
	m.sky = next
	return displaced, admitted, nil
}

// DeleteLeft removes the R1 tuple at index idx and updates the skyline
// through the retract path (RetractBatch): members referencing the row are
// evicted, survivors renumbered (tuple IDs above idx shift down by one,
// matching slice semantics), and resurrection candidates re-verified. For
// a self-join the one physical delete shrinks both sides at once.
func (m *Maintainer) DeleteLeft(idx int) error { return m.delete(idx, true) }

// DeleteRight removes the R2 tuple at index idx.
func (m *Maintainer) DeleteRight(idx int) error { return m.delete(idx, false) }

func (m *Maintainer) delete(idx int, left bool) error {
	if m.closed {
		return ErrMaintainerClosed
	}
	// The delete moves the relation's generation, so a resident handed to
	// UseResident could never match again: release it rather than pin it.
	// (The service's delete path re-hands a freshly retracted resident via
	// UseResident after the physical delete.)
	m.res = nil
	r := m.rel(left)
	if idx < 0 || idx >= r.Len() {
		return r.Delete(idx) // dataset's bounds error; nothing is mutated
	}
	ids := []int{idx}
	del := SnapshotRows(r, ids)
	if err := r.DeleteBatch(ids); err != nil {
		return err
	}
	self := m.q.R1 == m.q.R2
	onL, onR := left || self, !left || self
	_, _, err := m.RetractBatch(onL, onR, ids, NewRetractSet(m.q, onL, onR, del))
	return err
}

// Skyline returns the current answer, sorted by (Left, Right), or nil if
// the maintainer is closed. A live maintainer of an empty answer returns a
// non-nil empty slice, so nil is unambiguous.
func (m *Maintainer) Skyline() []join.Pair {
	if m.closed {
		return nil
	}
	out := make([]join.Pair, 0, len(m.sky))
	for _, p := range m.sky {
		out = append(out, p)
	}
	join.SortPairs(out)
	return out
}

// Len returns the current skyline size without copying.
func (m *Maintainer) Len() int { return len(m.sky) }

// Counters reports maintenance activity: incremental insert/absorb
// operations processed (a self-joined tuple absorbed on both sides counts
// as two operations) and full recomputes — the absorb and retract batches
// largeBatch sent to recomputeDiff.
func (m *Maintainer) Counters() (inserted, recomputes int) {
	return m.inserted, m.recomputes
}

// sortedKeys is a test helper exposing deterministic iteration.
func (m *Maintainer) sortedKeys() [][2]int {
	keys := make([][2]int, 0, len(m.sky))
	for k := range m.sky {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}
