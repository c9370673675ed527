package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

func appendTail(t *testing.T, r *dataset.Relation, rng *rand.Rand, n, d, groups, domain int) []int {
	t.Helper()
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		ts[i] = randTuple(rng, d, groups, domain)
	}
	first, err := r.AppendBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i
	}
	return ids
}

// TestResidentAbsorbMatchesRebuild pins the appendable snapshot: a
// Resident carried across batch appends with Absorb must serve queries
// exactly like one rebuilt from scratch over the grown relations.
func TestResidentAbsorbMatchesRebuild(t *testing.T) {
	for _, cond := range []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandGreaterEq} {
		t.Run(cond.Token(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cond)*17 + 3))
			local, agg, groups := 2, 1, 3
			r1 := randRelation(rng, "r1", 12, local, agg, groups, 6)
			r2 := randRelation(rng, "r2", 14, local, agg, groups, 6)
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
			q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)

			res, err := NewResident(q)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds per side, so the second absorb exercises state the
			// first one already advanced (leftSums, extended index).
			for round := 0; round < 2; round++ {
				ids1 := appendTail(t, r1, rng, 3+round, local+agg, groups, 6)
				if err := res.Absorb(Left, ids1); err != nil {
					t.Fatal(err)
				}
				ids2 := appendTail(t, r2, rng, 4, local+agg, groups, 6)
				if err := res.Absorb(Right, ids2); err != nil {
					t.Fatal(err)
				}
			}

			fresh, err := NewResident(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.n1 != fresh.n1 || res.n2 != fresh.n2 {
				t.Fatalf("absorbed lengths (%d,%d), rebuilt (%d,%d)", res.n1, res.n2, fresh.n1, fresh.n2)
			}
			if len(res.leftSorted) != len(fresh.leftSorted) {
				t.Fatalf("leftSorted sizes diverge: %d vs %d", len(res.leftSorted), len(fresh.leftSorted))
			}
			for i := range res.leftSorted {
				if res.leftSorted[i] != fresh.leftSorted[i] {
					t.Fatalf("leftSorted[%d] = %d absorbed, %d rebuilt", i, res.leftSorted[i], fresh.leftSorted[i])
				}
			}
			got, err := res.Exec(context.Background(), q, ExecOptions{Algorithm: Grouping})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Exec(context.Background(), q, ExecOptions{Algorithm: Grouping})
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, "absorbed resident", got, want)
		})
	}
}

// TestResidentAbsorbRejectsBadTails pins the contract: ids must be exactly
// the appended tail, already present in the relation.
func TestResidentAbsorbRejectsBadTails(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r1 := randRelation(rng, "r1", 8, 2, 0, 2, 5)
	r2 := randRelation(rng, "r2", 8, 2, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 3}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Absorb(Left, []int{9}); err == nil {
		t.Fatal("Absorb accepted a gap in the tail")
	} else if !strings.Contains(err.Error(), "left") {
		t.Fatalf("error %q does not name the side", err)
	}
	if err := res.Absorb(Right, []int{8}); err == nil {
		t.Fatal("Absorb accepted ids beyond the relation's length")
	}
	// A valid empty absorb is a no-op.
	if err := res.Absorb(Left, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorbBatchMatchesSequential pins the maintainer's batch entry
// point to the per-tuple path: one AbsorbBatch over the appended tail
// must land on the same skyline as one one-id AbsorbBatch per id, and
// both must match a from-scratch recompute.
func TestAbsorbBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 8; trial++ {
		agg := rng.Intn(2)
		local := 1 + rng.Intn(3)
		groups := 1 + rng.Intn(3)
		mk := func(suffix string) Query {
			q := Query{
				R1:   randRelation(rand.New(rand.NewSource(int64(trial)*2+10)), "r1"+suffix, 6+trial, local, agg, groups, 5),
				R2:   randRelation(rand.New(rand.NewSource(int64(trial)*2+11)), "r2"+suffix, 6+trial, local, agg, groups, 5),
				Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
			}
			return q
		}
		qSeq, qBat := mk("s"), mk("b")
		qSeq.K = qSeq.KMin() + rng.Intn(qSeq.Width()-qSeq.KMin()+1)
		qBat.K = qSeq.K

		mSeq, err := NewMaintainer(qSeq)
		if err != nil {
			t.Fatal(err)
		}
		mBat, err := NewMaintainer(qBat)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			n := 1 + rng.Intn(5)
			ts := make([]dataset.Tuple, n)
			for i := range ts {
				ts[i] = randTuple(rng, local+agg, groups, 5)
			}
			left := rng.Intn(2) == 0
			relSeq, relBat, side := qSeq.R2, qBat.R2, Right
			if left {
				relSeq, relBat, side = qSeq.R1, qBat.R1, Left
			}
			for _, tup := range ts {
				id, err := relSeq.Append(tup)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := mSeq.AbsorbBatch(side, []int{id}); err != nil {
					t.Fatal(err)
				}
			}
			first, err := relBat.AppendBatch(ts)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, n)
			for i := range ids {
				ids[i] = first + i
			}
			if _, _, err := mBat.AbsorbBatch(side, ids); err != nil {
				t.Fatal(err)
			}

			label := fmt.Sprintf("trial %d step %d side %v n %d", trial, step, side, n)
			batch := &Result{Skyline: mBat.Skyline()}
			assertSameSkyline(t, label+" (batch vs sequential)", batch, &Result{Skyline: mSeq.Skyline()})
			fresh, err := Run(qBat, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, label+" (batch vs recompute)", batch, fresh)
		}
		mSeq.Close()
		mBat.Close()
	}
}

// TestAbsorbBatchRejectsOutOfRange pins the batch range check.
func TestAbsorbBatchRejectsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := Query{
		R1:   randRelation(rng, "r1", 6, 2, 0, 2, 5),
		R2:   randRelation(rng, "r2", 6, 2, 0, 2, 5),
		Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
		K:    3,
	}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.AbsorbBatch(Left, []int{6}); err == nil {
		t.Fatal("AbsorbBatch(Left) accepted an id beyond the relation")
	}
	if _, _, err := m.AbsorbBatch(Right, []int{-1}); err == nil {
		t.Fatal("AbsorbBatch(Right) accepted a negative id")
	}
}
