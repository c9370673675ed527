package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

// assertPairsIdentical is assertSameSkyline strengthened to byte-identical
// joined attribute vectors, the contract the service's delete path relies
// on (watch deltas diff attrs-carrying pairs).
func assertPairsIdentical(t *testing.T, label string, got, want []join.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: skyline sizes differ: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Left != w.Left || g.Right != w.Right {
			t.Fatalf("%s: pair %d differs: (%d,%d) vs (%d,%d)", label, i, g.Left, g.Right, w.Left, w.Right)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("%s: pair %d attr widths differ: %d vs %d", label, i, len(g.Attrs), len(w.Attrs))
		}
		for j := range g.Attrs {
			if g.Attrs[j] != w.Attrs[j] {
				t.Fatalf("%s: pair %d attr %d differs: %v vs %v", label, i, j, g.Attrs, w.Attrs)
			}
		}
	}
}

// pickIDs draws b distinct row IDs from [0, n), sorted ascending.
func pickIDs(rng *rand.Rand, n, b int) []int {
	perm := rng.Perm(n)[:b]
	sort.Ints(perm)
	return perm
}

// TestRetractBatchMatchesRecompute drives random delete batches through
// the full retract pipeline — snapshot, physical DeleteBatch, RetractSet,
// resident retraction, Maintainer.RetractBatch — across every join
// condition and both sides, asserting the maintained skyline is
// byte-identical to a from-scratch recompute after every batch. Batch
// sizes straddle the recompute threshold so both hybrid arms are
// exercised.
func TestRetractBatchMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq}
	for trial := 0; trial < 72; trial++ {
		cond := conds[trial%len(conds)]
		local1 := 1 + rng.Intn(2)
		local2 := 1 + rng.Intn(2)
		agg := rng.Intn(3)
		groups := 1 + rng.Intn(3)
		r1 := randRelation(rng, "r1", 12+rng.Intn(18), local1, agg, groups, 5)
		r2 := randRelation(rng, "r2", 12+rng.Intn(18), local2, agg, groups, 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
		m, err := NewMaintainer(q)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			left := rng.Intn(2) == 0
			rel := q.R2
			if left {
				rel = q.R1
			}
			if rel.Len() < 5 {
				continue
			}
			b := 1 + rng.Intn(3)
			if rng.Intn(4) == 0 {
				b = 1 + rel.Len()/3 // cross the recompute threshold sometimes
			}
			if b >= rel.Len() {
				b = rel.Len() - 1
			}
			ids := pickIDs(rng, rel.Len(), b)

			var res *Resident
			if rng.Intn(2) == 0 {
				if res, err = NewResident(q); err != nil {
					t.Fatal(err)
				}
			}
			del := SnapshotRows(rel, ids)
			if err := rel.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
			rs := NewRetractSet(q, left, !left, del)
			if res != nil {
				side := Right
				if left {
					side = Left
				}
				if err := res.Retract(side, ids); err != nil {
					t.Fatal(err)
				}
				m.UseResident(res)
			}
			evicted, resurrected, err := m.RetractBatch(left, !left, ids, rs)
			if err != nil {
				t.Fatal(err)
			}
			if evicted < 0 || resurrected < 0 {
				t.Fatalf("negative counters: %d %d", evicted, resurrected)
			}
			fresh, err := Run(q, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d step %d cond=%v left=%v b=%d k=%d", trial, step, cond, left, b, q.K)
			assertPairsIdentical(t, label, m.Skyline(), fresh.Skyline)
		}
	}
}

// TestMaintainerDeleteResurrectsMultiple pins the resurrection shape the
// old recompute fallback hid: deleting one skyline member whose pairs were
// the sole dominators of several tuples must re-admit all of them.
func TestMaintainerDeleteResurrectsMultiple(t *testing.T) {
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{
		{Key: "a", Attrs: []float64{0, 0}}, // dominates both weak rows
		{Key: "a", Attrs: []float64{3, 4}},
		{Key: "a", Attrs: []float64{4, 3}},
	})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{
		{Key: "a", Attrs: []float64{0, 0}},
	})
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("initial skyline size %d, want 1", m.Len())
	}
	ids := []int{0}
	del := SnapshotRows(r1, ids)
	if err := r1.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	rs := NewRetractSet(q, true, false, del)
	evicted, resurrected, err := m.RetractBatch(true, false, ids, rs)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 || resurrected != 2 {
		t.Fatalf("evicted=%d resurrected=%d, want 1 and 2", evicted, resurrected)
	}
	fresh, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "multi-resurrection", m.Skyline(), fresh.Skyline)
}

// TestMaintainerDeleteSelfJoin deletes from both sides of a self-join: one
// physical delete shrinks R1 and R2 at once, and the retract path must
// evict pairs referencing the row on either side and renumber both pair
// components.
func TestMaintainerDeleteSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	for _, cond := range []join.Condition{join.Equality, join.Cross, join.BandLessEq} {
		r := randRelation(rng, "r", 24, 2, 1, 2, 5)
		q := Query{R1: r, R2: r, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		q.K = q.KMin() + 1
		if q.K > q.Width() {
			q.K = q.Width()
		}
		m, err := NewMaintainer(q)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6 && r.Len() > 10; step++ {
			idx := rng.Intn(r.Len())
			if step%2 == 0 {
				err = m.DeleteLeft(idx)
			} else {
				err = m.DeleteRight(idx)
			}
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(q, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("self-join cond=%v step=%d", cond, step)
			assertPairsIdentical(t, label, m.Skyline(), fresh.Skyline)
		}
	}
}

// TestMaintainerDeleteReinsert exercises the length-restoring mutation a
// (pointer, length) staleness check cannot see: delete then reinsert —
// identical values and then different ones — while a resident was in use.
// The maintainer must drop the resident on delete and keep every
// subsequent answer identical to a recompute.
func TestMaintainerDeleteReinsert(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	r1 := randRelation(rng, "r1", 15, 2, 1, 2, 5)
	r2 := randRelation(rng, "r2", 15, 2, 1, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 4}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	m.UseResident(res)

	// Identical reinsert: the relation returns to its pre-delete length
	// with the same multiset of rows, but row 3's ID has moved to the end.
	tup := r1.Tuple(3)
	tup.Attrs = append([]float64(nil), tup.Attrs...)
	if err := m.DeleteLeft(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.InsertLeft(tup); err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "identical reinsert", m.Skyline(), fresh.Skyline)

	// Different reinsert through the same trap, on the right side.
	m.UseResident(res) // stale by contents; must be ignored or dropped, never served
	if err := m.DeleteRight(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.InsertRight(randTuple(rng, 3, 2, 5)); err != nil {
		t.Fatal(err)
	}
	fresh, err = Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "different reinsert", m.Skyline(), fresh.Skyline)
}

// TestResidentRetract checks that a retracted resident serves queries
// identically to a fresh build over the shrunken relations, for every
// condition and both sides, including the self-join double retract.
func TestResidentRetract(t *testing.T) {
	rng := rand.New(rand.NewSource(804))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq}
	ctx := context.Background()
	for trial := 0; trial < 36; trial++ {
		cond := conds[trial%len(conds)]
		r1 := randRelation(rng, "r1", 15+rng.Intn(10), 2, 1, 3, 5)
		r2 := randRelation(rng, "r2", 15+rng.Intn(10), 2, 1, 3, 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}, K: 4}
		res, err := NewResident(q)
		if err != nil {
			t.Fatal(err)
		}
		// Force the lazily built left-sum cache into existence on half the
		// trials so its compaction is covered too.
		if trial%2 == 0 {
			id, err := r1.Append(randTuple(rng, 3, 3, 5))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Absorb(Left, []int{id}); err != nil {
				t.Fatal(err)
			}
		}
		left := rng.Intn(2) == 0
		rel, side := r2, Right
		if left {
			rel, side = r1, Left
		}
		ids := pickIDs(rng, rel.Len(), 1+rng.Intn(4))
		if err := rel.DeleteBatch(ids); err != nil {
			t.Fatal(err)
		}
		if err := res.Retract(side, ids); err != nil {
			t.Fatal(err)
		}
		if err := res.Check(q); err != nil {
			t.Fatal(err)
		}
		got, err := res.Exec(ctx, q, ExecOptions{Algorithm: Grouping})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d cond=%v side=%v", trial, cond, side)
		assertPairsIdentical(t, label, got.Skyline, fresh.Skyline)
	}

	// Self-join: one physical delete, both sides retracted separately.
	r := randRelation(rng, "r", 20, 2, 0, 2, 5)
	q := Query{R1: r, R2: r, Spec: join.Spec{Cond: join.Equality}, K: 3}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{2, 9, 15}
	if err := r.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := res.Retract(Left, ids); err != nil {
		t.Fatal(err)
	}
	if err := res.Retract(Right, ids); err != nil {
		t.Fatal(err)
	}
	got, err := res.Exec(ctx, q, ExecOptions{Algorithm: Grouping})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "self-join resident retract", got.Skyline, fresh.Skyline)

	// Misuse is rejected: unsorted ids, out-of-range ids, wrong length.
	if err := res.Retract(Left, []int{5, 3}); err == nil {
		t.Error("unsorted retract ids accepted")
	}
	if err := res.Retract(Left, []int{400}); err == nil {
		t.Error("out-of-range retract ids accepted")
	}
}
