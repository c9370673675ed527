package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/join"
)

// Resident holds the per-(R1, R2, join condition) structures the engine
// otherwise rebuilds on every Exec: the probe-ordered full-R2 join index,
// and the sum-sorted R1 probe order. Neither depends on k or on the
// aggregator, so one Resident serves every query over the same relation
// pair and condition.
//
// A Resident is immutable after construction and safe to share across
// concurrent Execs — it is the resident-relation reuse the service layer
// is built on: relations are loaded once, the index is built once, and
// each admitted query skips straight to categorization and verification.
//
// A Resident is a snapshot: it is valid only while the relations it was
// built from keep the exact contents (and lengths) they had at build time.
// Callers that append to the relations can carry the snapshot forward with
// Absorb instead of rebuilding; any other mutation requires a fresh
// Resident — Exec rejects a stale one.
type Resident struct {
	r1, r2     *dataset.Relation
	n1, n2     int
	cond       join.Condition
	rightIx    *join.Index
	leftSorted []int
	// leftSums caches the attribute sums behind leftSorted's ordering,
	// indexed by R1 row ID; built lazily by the first left-side Absorb so
	// batch merges extend it instead of re-summing the whole relation.
	leftSums []float64
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
// relations that grew or shrank since the Resident was built.
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
		cond:       e.cond,
		rightIx:    e.allRightIx,
		leftSorted: e.allLeftSorted,
	}, nil
}

// Absorb advances the snapshot over rows appended to one side's relation:
// ids must be exactly that side's appended tail — the consecutive row IDs
// from the snapshot's recorded length up — each listed once, in order. A
// left absorb merges the new rows into the sum-sorted probe order (a
// stable merge of the sorted tail, reproducing exactly the ordering a
// rebuild would compute); a right absorb extends the full-R2 join index in
// place (join.Index.Extend). Both advance the recorded length, so the
// post-batch Resident serves queries without ErrStaleResident at merge
// cost instead of rebuild cost.
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
	if side == Left {
		r.leftSorted = mergeBySum(r.leftSorted, ids, r.extendLeftSums(ids))
		r.n1 += len(ids)
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
	return nil
}

// Retract advances the snapshot over a batch delete on one side's
// relation: ids must be the deleted rows' pre-delete IDs, sorted strictly
// ascending — the same slice handed to dataset.Relation.DeleteBatch — and
// the relation must already be compacted. A left retract filters the
// deleted rows out of the sum-sorted probe order and renumbers the
// survivors (sums are untouched by a delete, so the filtered order is
// exactly what a rebuild would sort); a right retract does the same to the
// full-R2 join index (join.Index.Retract). Both shrink the recorded
// length. For a self-join retract each side separately, exactly as with
// Absorb.
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
		return nil
	}
	r.rightIx.Retract(ids)
	r.n2 -= len(ids)
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
		r.n1 == q.R1.Len() && r.n2 == q.R2.Len()
}

// check returns ErrStaleResident (with detail) when the snapshot no longer
// matches q.
func (r *Resident) check(q Query) error {
	if r.matches(q) {
		return nil
	}
	return fmt.Errorf("%w: built for (%s[%d], %s[%d], %v), query is (%s[%d], %s[%d], %v)",
		ErrStaleResident, r.r1.Name, r.n1, r.r2.Name, r.n2, r.cond,
		q.R1.Name, q.R1.Len(), q.R2.Name, q.R2.Len(), q.Spec.Cond)
}

// Check reports whether the snapshot still serves q: same relations, same
// join condition, unchanged lengths. It returns ErrStaleResident (with the
// mismatch spelled out) otherwise — the test a prepared-query layer runs
// before serving any reused state. Note the limit shared with Exec's
// internal check: a mutation that leaves a relation at its build-time
// length (delete + reinsert) is invisible here; writers that mutate
// through such paths must rebuild.
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
// orders instead of rebuilding them per probed k. The snapshot is
// k-independent, so one Resident serves the whole search.
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
// per-Exec index and probe-order construction.
func (r *Resident) seed(e *engine) {
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
