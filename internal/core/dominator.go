package core

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
)

// targetSets holds one run's k-dependent inputs: each side's SS/SN/NN
// categorization at k′ (Definitions 1-3), and the explicit target sets
// Algorithm 3 refines the grouping algorithm with: for a joined vector
// cand, τ(u) = {x ∈ R1 : x ≤ u on at least k″1 local attributes} and τ(v)
// likewise over R2 — the paper's dominators ∪ augment ∪ self collapsed
// into one predicate. Every joined dominator of cand is drawn from
// τ(u) ⋈ τ(v), so checking cand against that join alone is exact, and
// usually far cheaper than the cell join grouping scans or the whole
// R1 ⋈ R2. It is the one strict whole-join check: the dominator arm's
// candidates, round-2 votes, membership probes and the maintainer's
// resurrections all go through of.
//
// τ(u) depends only on u's l1 local attributes, which are cand[:l1], and
// τ(v) only on cand[l1:l1+l2]; so the sets are keyed by the exact bits of
// those two sub-vectors. Equal sub-vectors have equal sets, which makes
// the key exact, lets a vector from outside the relations (a peer's
// candidate) be checked like a row's own, and shares one set between rows
// with equal locals.
//
// Sets are built on first use, at most once per key: τ(u) as an R1 list in
// probe order, τ(v) as a checker index over R2. Each set is one scan of
// its relation in probe order — R1 by ascending attribute sum (the
// engine's, or the resident's, full probe order), R2 in rightProbeOrder of
// all rows, built once with the first right set. Filtering a stable
// sum-sorted order keeps exactly the stable sum sort of the filtered rows,
// so no set is ever sorted and every candidate probes in the order sorting
// it would give. A lookup that hits only reads the maps (the key is built
// in the caller's stack buffer), so pool workers share the sets once the
// coordinator has built them.
//
// Over a resident, a run first reads the state earlier runs published for
// its k (pub, never written again), builds only what that lacks into its
// own maps, and publish hands those to the resident for the next run
// (votes, whose vectors come from outside the relations, skip it). So
// a warm run categorizes nothing and builds no set; its answer and its
// domination tests are the cold run's, because the sets and orders are.
type targetSets struct {
	e *engine
	// table and pub are the resident's published table and its state for
	// this run's k; without a resident, pub is empty and table nil.
	table *heldTable
	pub   *heldK
	// heldK holds what this run computed itself.
	heldK
	order2 []int
	// scratch collects one set's rows before they are copied out at exact
	// length.
	scratch []int
	built   time.Duration // time spent building sets and their indexes
}

// heldK is the state published for one k over one resident version: both
// sides' categorizations and every target set runs at that k have built.
// Once published a heldK is never written again, so runs and pool workers
// read it without a lock.
type heldK struct {
	cats   [2]*Categorization
	lefts  map[string][]int
	rights map[string]*join.Index
}

// noHeld is the empty state a run without a resident reads.
var noHeld = &heldK{}

func newTargetSets(e *engine) *targetSets {
	t := &targetSets{e: e, pub: noHeld, heldK: heldK{lefts: map[string][]int{}, rights: map[string]*join.Index{}}}
	if e.res != nil {
		t.table, t.order2, t.pub = e.res.heldAt(e.q.K)
	}
	return t
}

// publish hands what this run built to its resident, for the runs after it
// at the same k. Categorizations are held from the first run at a k on,
// target sets from the second: the first run's entry only marks the k as
// asked. A k asked once — the computation behind a cached answer, a pair
// no write ever touches — would otherwise pin sets that no run reads, for
// as long as no write drops them. A write keeps the marks (Resident.drop),
// so at a k asked before it, the first run after it publishes its sets.
func (t *targetSets) publish() {
	if t.table == nil {
		return
	}
	own := t.heldK // a copy: the table must not pin the run's engine
	if t.pub == noHeld {
		own.lefts, own.rights = nil, nil
	} else if own.cats == [2]*Categorization{} && len(own.lefts) == 0 && len(own.rights) == 0 {
		return
	}
	t.e.res.publish(t.table, t.e.q.K, t.order2, &own)
}

// categorization returns side's SS/SN/NN split at the run's k′: the
// published one, or one computed now. Both sides may be asked for
// concurrently; each writes only its own slot.
func (t *targetSets) categorization(side Side) Categorization {
	if c := t.pub.cats[side]; c != nil {
		return *c
	}
	q := t.e.q
	k1p, k2p := q.KPrimes()
	r, kp := q.R1, k1p
	if side == Right {
		r, kp = q.R2, k2p
	}
	c := Categorize(r, kp, t.e.cond, side)
	t.cats[side] = &c
	return c
}

// of is the targetsFn of every strict whole-join check: τ(u) and τ(v) for
// the joined vector cand.
func (t *targetSets) of(cand []float64) ([]int, *join.Index) {
	l1, l2 := t.e.l1, t.e.l2
	return t.left(cand[:l1]), t.right(cand[l1 : l1+l2])
}

// left returns τ(u) over R1 in probe order, for u's local sub-vector.
func (t *targetSets) left(local []float64) []int {
	var buf [64]byte
	key := bitsKey(buf[:0], local)
	if s, ok := t.pub.lefts[string(key)]; ok {
		return s
	}
	if s, ok := t.lefts[string(key)]; ok {
		return s
	}
	t0 := time.Now()
	e := t.e
	t.scratch = targetSet(t.scratch[:0], e.q.R1, e.allLeftOrder(), local, e.k1pp)
	s := make([]int, len(t.scratch))
	copy(s, t.scratch)
	t.lefts[string(key)] = s
	t.built += time.Since(t0)
	return s
}

// right returns the checker index over τ(v), for v's local sub-vector.
func (t *targetSets) right(local []float64) *join.Index {
	var buf [64]byte
	key := bitsKey(buf[:0], local)
	if ix, ok := t.pub.rights[string(key)]; ok {
		return ix
	}
	if ix, ok := t.rights[string(key)]; ok {
		return ix
	}
	t0 := time.Now()
	e := t.e
	if t.order2 == nil {
		t.order2 = e.rightProbeOrder(allIndices(e.q.R2.Len()))
	}
	// The index copies the set into its own layout, so the scratch is
	// reused for the next one.
	t.scratch = targetSet(t.scratch[:0], e.q.R2, t.order2, local, e.k2pp)
	ix := e.rightIndex(t.scratch)
	t.rights[string(key)] = ix
	t.built += time.Since(t0)
	return ix
}

// bitsKey appends the exact bits of v to dst: a target-set map key.
func bitsKey(dst []byte, v []float64) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// targetSet appends to out the target set τ(u) (Def 5) of the local
// sub-vector local — every x that could be the same-side component of a
// joined dominator of a tuple built from u — with its rows in the order
// they appear in order.
func targetSet(out []int, r *dataset.Relation, order []int, local []float64, kpp int) []int {
	for _, x := range order {
		if localLeqAtLeast(r.Attrs(x), local, len(local), kpp) {
			out = append(out, x)
		}
	}
	return out
}
