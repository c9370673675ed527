package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/join"
)

// Resident is the prepared form of one (R1, R2, join condition): the
// structures the engine otherwise rebuilds on every Exec. Two kinds are
// held:
//
//   - the k-independent ones, built with the Resident: the probe-ordered
//     full-R2 join index and the sum-sorted R1 probe order;
//   - a table of Algorithm 3's k-dependent state, filled by the runs
//     themselves: per k, both sides' SS/SN/NN categorizations and every
//     target set τ(u), τ(v) a run has built (targetSets), plus R2's sum
//     order the τ(v) scans share. A run reads what is there and publishes
//     what it had to build — categorizations from the first run at a k
//     on, target sets from the second, so a k asked once pins no sets —
//     and every later run at that k builds nothing. A write empties the
//     table but keeps its k's, so at a k asked before the write the
//     first run after it already publishes its sets. Votes on outside
//     vectors (AnyDominators, Membership) read the table but publish
//     nothing, so every held set is keyed by a row's local sub-vector:
//     at most one τ(u) per R1 row and one τ(v) per R2 row at each k.
//
// None of it depends on the aggregator, so one Resident serves every query
// over the same relation pair and condition, at every k.
//
// A Resident is safe to share across concurrent Execs: they only read the
// k-independent structures, and the table is read and extended under a
// small mutex, once at the start and once at the end of a run. A published
// entry is never written again, so the lookups in between, the pool
// workers' included, take no lock.
//
// A Resident is a snapshot: it is valid only while the relations it was
// built from keep the exact rows they had — same length, same mutation
// generation (dataset.Relation.Generation). Callers that mutate the
// relations carry the snapshot forward with Absorb (after an append) or
// Retract (after a delete); both drop the k-dependent table's contents,
// which the next runs rebuild. Any other mutation requires a fresh
// Resident — Exec rejects a stale one.
type Resident struct {
	r1, r2     *dataset.Relation
	n1, n2     int
	gen1, gen2 uint64
	cond       join.Condition
	rightIx    *join.Index
	leftSorted []int
	// leftSums caches the attribute sums behind leftSorted's ordering,
	// indexed by R1 row ID; built lazily by the first left-side Absorb so
	// batch merges extend it instead of re-summing the whole relation.
	leftSums []float64

	// mu guards held, which Absorb and Retract replace by an empty table
	// over the same k's and the first run ever creates.
	mu   sync.Mutex
	held *heldTable
}

// heldTable is the k-dependent state published over one resident version.
// A run publishes into the table it read at its start: a write that
// dropped the table in between has orphaned it, so state built over the
// old rows never reaches its successor.
type heldTable struct {
	order2 []int // R2 in rightProbeOrder, shared by every k
	byK    map[int]*heldK
}

// heldAt returns the current table (creating it on the first run), R2's held
// probe order, and the state published for k (never nil).
func (r *Resident) heldAt(k int) (*heldTable, []int, *heldK) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held == nil {
		r.held = &heldTable{byK: map[int]*heldK{}}
	}
	hk := r.held.byK[k]
	if hk == nil {
		hk = noHeld
	}
	return r.held, r.held.order2, hk
}

// publish merges what one run built at k into table. The merged state is
// a new heldK: the one runs are reading is left as it was.
func (r *Resident) publish(table *heldTable, k int, order2 []int, add *heldK) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if table.order2 == nil {
		table.order2 = order2
	}
	old := table.byK[k]
	if old == nil {
		table.byK[k] = add
		return
	}
	next := &heldK{cats: old.cats, lefts: merged(old.lefts, add.lefts), rights: merged(old.rights, add.rights)}
	for side, c := range add.cats {
		if next.cats[side] == nil {
			next.cats[side] = c
		}
	}
	table.byK[k] = next
}

// merged returns a new map holding old's entries and add's, old's winning;
// with nothing to add it returns old itself.
func merged[V any](old, add map[string]V) map[string]V {
	if len(add) == 0 {
		return old
	}
	out := make(map[string]V, len(old)+len(add))
	for key, v := range add {
		out[key] = v
	}
	for key, v := range old {
		out[key] = v
	}
	return out
}

// drop discards the k-dependent table's contents but keeps its k's: the
// successor holds an empty entry for every k the table held, so the first
// run at such a k after the write counts as a later run and publishes its
// target sets beside its categorizations. The markers are keyed by k, so
// the table stays bounded by the k values in use. Absorb and Retract call
// it, under the same exclusion from readers their other writes need.
func (r *Resident) drop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held == nil {
		return
	}
	next := &heldTable{byK: make(map[int]*heldK, len(r.held.byK))}
	for k := range r.held.byK {
		next.byK[k] = &heldK{}
	}
	r.held = next
}

// String returns "left" or "right" (Side is declared with the
// categorization machinery; the absorption entry points reuse it).
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// ErrStaleResident is returned by Exec when ExecOptions.Resident does not
// match the query: different relations, a different join condition, or
// relations mutated since the Resident was built or last advanced.
var ErrStaleResident = errors.New("core: resident index does not match the query's relations")

// NewResident builds the shared structures for q's relation pair and join
// condition. Unlike Exec it does not validate k: the same Resident serves
// queries at every admissible k.
func NewResident(q Query) (*Resident, error) {
	if q.R1 == nil || q.R2 == nil {
		return nil, errors.New("core: nil relation")
	}
	if err := q.R1.Validate(); err != nil {
		return nil, err
	}
	if err := q.R2.Validate(); err != nil {
		return nil, err
	}
	if err := join.CheckSchemas(q.R1, q.R2); err != nil {
		return nil, err
	}
	// Drive the engine's own lazy builders so the resident structures are
	// bit-identical to what a cold Exec would construct.
	st := Stats{}
	e := newEngine(q, &st)
	e.rightAllIndex()
	e.leftProbeOrder(allIndices(q.R1.Len()))
	return &Resident{
		r1:         q.R1,
		r2:         q.R2,
		n1:         q.R1.Len(),
		n2:         q.R2.Len(),
		gen1:       q.R1.Generation(),
		gen2:       q.R2.Generation(),
		cond:       e.cond,
		rightIx:    e.allRightIx,
		leftSorted: e.allLeftSorted,
	}, nil
}

// Absorb advances the snapshot over rows appended to one side's relation:
// ids must be exactly that side's appended tail — the consecutive row IDs
// from the snapshot's recorded length up — each listed once, in order, and
// no row may have been deleted since the snapshot. A left absorb merges
// the new rows into the sum-sorted probe order (a stable merge of the
// sorted tail, reproducing exactly the ordering a rebuild would compute);
// a right absorb extends the full-R2 join index in place
// (join.Index.Extend). Both advance the recorded length and generation,
// so the post-batch Resident serves queries without ErrStaleResident at
// merge cost instead of rebuild cost, and both drop the k-dependent
// table's contents.
//
// Absorb writes to structures concurrent Execs read: callers must exclude
// it from readers exactly as they exclude relation mutation. For a
// self-join (one relation on both sides) absorb each side separately.
func (r *Resident) Absorb(side Side, ids []int) error {
	rel, n := r.r2, r.n2
	if side == Left {
		rel, n = r.r1, r.n1
	}
	for i, id := range ids {
		if id != n+i {
			return fmt.Errorf("core: absorb %s ids must be the appended tail starting at %d (got %d at position %d)",
				side, n, id, i)
		}
	}
	if n+len(ids) > rel.Len() {
		return fmt.Errorf("core: absorb %s ids reach row %d, relation %s has %d rows",
			side, n+len(ids)-1, rel.Name, rel.Len())
	}
	if len(ids) == 0 {
		return nil
	}
	r.drop()
	if side == Left {
		r.leftSorted = mergeBySum(r.leftSorted, ids, r.extendLeftSums(ids))
		r.n1 += len(ids)
		r.gen1 = rel.Generation()
		return nil
	}
	// Probe-priority for the appended tail mirrors rightProbeOrder: sum
	// order for bucketed conditions, natural order where the index
	// re-sorts by band anyway.
	tail := ids
	if r.cond == join.Equality || r.cond == join.Cross {
		tail = sortBySum(r.r2, ids)
	}
	r.rightIx.Extend(tail)
	r.n2 += len(ids)
	r.gen2 = rel.Generation()
	return nil
}

// Retract advances the snapshot over a batch delete on one side's
// relation: ids must be the deleted rows' pre-delete IDs, sorted strictly
// ascending — the same slice handed to dataset.Relation.DeleteBatch — and
// the relation must already be compacted. A left retract filters the
// deleted rows out of the sum-sorted probe order and renumbers the
// survivors (sums are untouched by a delete, so the filtered order is
// exactly what a rebuild would sort); a right retract does the same to the
// full-R2 join index (join.Index.Retract). Both shrink the recorded length,
// record the relation's generation and drop the k-dependent table's
// contents. For a self-join retract each side separately, exactly as
// with Absorb.
//
// Like Absorb, Retract writes to structures concurrent Execs read: callers
// must exclude it from readers.
func (r *Resident) Retract(side Side, ids []int) error {
	rel, n := r.r2, r.n2
	if side == Left {
		rel, n = r.r1, r.n1
	}
	for i, id := range ids {
		if id < 0 || id >= n || (i > 0 && id <= ids[i-1]) {
			return fmt.Errorf("core: retract %s ids must be strictly ascending pre-delete row IDs in [0,%d)", side, n)
		}
	}
	if n-len(ids) != rel.Len() {
		return fmt.Errorf("core: retract %s of %d ids expects relation %s at %d rows, it has %d",
			side, len(ids), rel.Name, n-len(ids), rel.Len())
	}
	if len(ids) == 0 {
		return nil
	}
	r.drop()
	if side == Left {
		w := 0
		for _, id := range r.leftSorted {
			j := sort.SearchInts(ids, id)
			if j < len(ids) && ids[j] == id {
				continue
			}
			r.leftSorted[w] = id - j
			w++
		}
		r.leftSorted = r.leftSorted[:w]
		if r.leftSums != nil {
			w, next := 0, 0
			for i, s := range r.leftSums {
				if next < len(ids) && ids[next] == i {
					next++
					continue
				}
				r.leftSums[w] = s
				w++
			}
			r.leftSums = r.leftSums[:w]
		}
		r.n1 -= len(ids)
		r.gen1 = rel.Generation()
		return nil
	}
	r.rightIx.Retract(ids)
	r.n2 -= len(ids)
	r.gen2 = rel.Generation()
	return nil
}

// extendLeftSums brings the cached R1 attribute sums up to date with the
// appended ids and returns the table (indexed by row ID).
func (r *Resident) extendLeftSums(ids []int) []float64 {
	if r.leftSums == nil {
		r.leftSums = make([]float64, 0, r.n1+len(ids))
		for i := 0; i < r.n1; i++ {
			r.leftSums = append(r.leftSums, sumOf(r.r1.Attrs(i)))
		}
	}
	for _, id := range ids {
		r.leftSums = append(r.leftSums, sumOf(r.r1.Attrs(id)))
	}
	return r.leftSums
}

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// mergeBySum merges the appended ids into an existing ascending-sum
// ordering: the tail is stable-sorted by sum, then merged with existing
// entries winning ties. Because the appended ids all follow the existing
// ones in natural order, this is exactly the stable sort a from-scratch
// rebuild computes.
func mergeBySum(sorted, ids []int, sums []float64) []int {
	tail := append([]int(nil), ids...)
	slices.SortStableFunc(tail, func(a, b int) int { return cmp.Compare(sums[a], sums[b]) })
	merged := make([]int, len(sorted)+len(tail))
	i, j := len(sorted)-1, len(tail)-1
	for k := len(merged) - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && sums[sorted[i]] > sums[tail[j]]) {
			merged[k] = sorted[i]
			i--
		} else {
			merged[k] = tail[j]
			j--
		}
	}
	return merged
}

// matches reports whether the resident snapshot is still valid for q.
func (r *Resident) matches(q Query) bool {
	return r.r1 == q.R1 && r.r2 == q.R2 && r.cond == q.Spec.Cond &&
		r.n1 == q.R1.Len() && r.n2 == q.R2.Len() &&
		r.gen1 == q.R1.Generation() && r.gen2 == q.R2.Generation()
}

// check returns ErrStaleResident (with detail) when the snapshot no longer
// matches q.
func (r *Resident) check(q Query) error {
	if r.matches(q) {
		return nil
	}
	return fmt.Errorf("%w: built for (%s[%d]@%d, %s[%d]@%d, %v), query is (%s[%d]@%d, %s[%d]@%d, %v)",
		ErrStaleResident, r.r1.Name, r.n1, r.gen1, r.r2.Name, r.n2, r.gen2, r.cond,
		q.R1.Name, q.R1.Len(), q.R1.Generation(), q.R2.Name, q.R2.Len(), q.R2.Generation(), q.Spec.Cond)
}

// Check reports whether the snapshot still serves q: same relations, same
// join condition, unchanged lengths and mutation generations. It returns
// ErrStaleResident (with the mismatch spelled out, as name[length]@generation)
// otherwise — the test a prepared-query layer runs before serving any
// reused state. A delete followed by an insert of equal size moves the
// generation, so it is caught like any other mutation.
func (r *Resident) Check(q Query) error { return r.check(q) }

// Exec runs q over the resident snapshot: it is Exec with
// ExecOptions.Resident set to r. This is the one evaluation entry point
// the prepared-query facade and the query service share — both layers own
// a Resident and drive every run through it.
func (r *Resident) Exec(ctx context.Context, q Query, o ExecOptions) (*Result, error) {
	o.Resident = r
	return Exec(ctx, q, o)
}

// FindK solves Problem 3 over the resident snapshot: every probe's
// grouping run and every pair-count bound reuses r's join index and probe
// orders instead of rebuilding them per probed k, and takes its
// categorization from r's table — a bound and a count at the same k
// categorize once, and so does a later search or query at that k.
func (r *Resident) FindK(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	if err := r.check(q); err != nil {
		return nil, err
	}
	return findKContext(ctx, q, delta, alg, r)
}

// FindKAtMost solves Problem 4 over the resident snapshot; see FindK.
func (r *Resident) FindKAtMost(ctx context.Context, q Query, delta int, alg FindKAlgorithm) (*FindKResult, error) {
	if err := r.check(q); err != nil {
		return nil, err
	}
	return findKAtMostContext(ctx, q, delta, alg, r)
}

// Membership tests many joined pairs over the resident snapshot, sharing
// r's structures across probes; see MembershipContext.
func (r *Resident) Membership(ctx context.Context, q Query, pairs [][2]int) ([]bool, error) {
	if err := r.check(q); err != nil {
		return nil, err
	}
	return membershipContext(ctx, q, pairs, r)
}

// AnyDominators checks foreign candidate vectors against the resident
// snapshot's partition, each against its target sets, which scan r's
// sum-sorted R1 order; see AnyDominatorsContext. This is the
// verification-round primitive a shard serves on behalf of its peers.
func (r *Resident) AnyDominators(ctx context.Context, q Query, vectors [][]float64) ([]bool, error) {
	if err := r.check(q); err != nil {
		return nil, err
	}
	return anyDominatorsContext(ctx, q, vectors, r)
}

// seed pre-loads an engine with the resident structures, skipping the
// per-Exec index and probe-order construction; the engine's target sets
// read and publish r's k-dependent table (newTargetSets).
func (r *Resident) seed(e *engine) {
	e.res = r
	e.allRightIx = r.rightIx
	e.allLeftSorted = r.leftSorted
}

// newEngineResident is newEngine seeded from an optional Resident; res may
// be nil.
func newEngineResident(q Query, stats *Stats, res *Resident) *engine {
	e := newEngine(q, stats)
	if res != nil {
		res.seed(e)
	}
	return e
}
