package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/join"
)

// TestResidentMatchesCold pins Exec with a shared Resident byte-identical
// to a cold Exec for every algorithm and join condition the resident
// supports.
func TestResidentMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandGreaterEq}
	for trial := 0; trial < 8; trial++ {
		agg := rng.Intn(3)
		local := 1 + rng.Intn(3)
		r1 := randRelation(rng, "r1", 6+rng.Intn(12), local, agg, 1+rng.Intn(3), 6)
		r2 := randRelation(rng, "r2", 6+rng.Intn(12), local, agg, 1+rng.Intn(3), 6)
		cond := conds[trial%len(conds)]
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)

		res, err := NewResident(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Grouping, DominatorBased, Naive} {
			cold, err := Run(q, alg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Exec(context.Background(), q, ExecOptions{Algorithm: alg, Resident: res})
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, "resident "+alg.String(), warm, cold)
		}
		// The same Resident must serve a different k unchanged.
		if q.K > q.KMin() {
			q2 := q
			q2.K = q.KMin()
			cold, err := Run(q2, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Exec(context.Background(), q2, ExecOptions{Algorithm: Grouping, Resident: res})
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, "resident other-k", warm, cold)
		}
	}
}

// TestResidentParallelAndEmit checks the resident path composes with the
// grouping algorithm's Workers and Emit modes.
func TestResidentParallelAndEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	r1 := randRelation(rng, "r1", 40, 3, 1, 3, 8)
	r2 := randRelation(rng, "r2", 40, 3, 1, 3, 8)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 6}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: 4, Resident: res})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSkyline(t, "resident workers", warm, cold)

	var streamed []join.Pair
	if _, err := Exec(context.Background(), q, ExecOptions{
		Algorithm: Grouping,
		Resident:  res,
		Emit:      func(p join.Pair) bool { streamed = append(streamed, p); return true },
	}); err != nil {
		t.Fatal(err)
	}
	got := &Result{Skyline: streamed}
	join.SortPairs(got.Skyline)
	assertSameSkyline(t, "resident emit", got, cold)
}

// TestResidentStale checks Exec rejects a resident built before the
// relations changed, and one built for a different condition or pair.
func TestResidentStale(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	r1 := randRelation(rng, "r1", 10, 2, 0, 2, 5)
	r2 := randRelation(rng, "r2", 10, 2, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}

	// Grown relation: the snapshot no longer covers every tuple.
	if _, err := r1.Append(randTuple(rng, 2, 2, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Resident: res}); !errors.Is(err, ErrStaleResident) {
		t.Errorf("grown relation: err = %v, want ErrStaleResident", err)
	}

	// Different condition.
	fresh, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	qBand := q
	qBand.Spec.Cond = join.BandLess
	if _, err := Exec(context.Background(), qBand, ExecOptions{Algorithm: Grouping, Resident: fresh}); !errors.Is(err, ErrStaleResident) {
		t.Errorf("other condition: err = %v, want ErrStaleResident", err)
	}

	// Different relation pair (same lengths — pointer identity must catch it).
	qOther := q
	qOther.R1 = r1.Clone()
	if _, err := Exec(context.Background(), qOther, ExecOptions{Algorithm: Grouping, Resident: fresh}); !errors.Is(err, ErrStaleResident) {
		t.Errorf("other relations: err = %v, want ErrStaleResident", err)
	}
}
