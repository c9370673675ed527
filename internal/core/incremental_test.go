package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

func randTuple(rng *rand.Rand, d, groups, domain int) dataset.Tuple {
	attrs := make([]float64, d)
	for j := range attrs {
		attrs[j] = float64(rng.Intn(domain))
	}
	return dataset.Tuple{
		Key:   fmt.Sprintf("g%d", rng.Intn(groups)),
		Band:  float64(rng.Intn(8)),
		Attrs: attrs,
	}
}

// TestMaintainerMatchesRecompute interleaves random insertions into both
// relations and compares the incremental answer against a from-scratch run
// after every step.
func TestMaintainerMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 12; trial++ {
		agg := rng.Intn(3)
		local := 1 + rng.Intn(3)
		groups := 1 + rng.Intn(3)
		r1 := randRelation(rng, "r1", 4+rng.Intn(10), local, agg, groups, 5)
		r2 := randRelation(rng, "r2", 4+rng.Intn(10), local, agg, groups, 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)

		m, err := NewMaintainer(q)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			tup := randTuple(rng, local+agg, groups, 5)
			if rng.Intn(2) == 0 {
				_, _, err = m.InsertLeft(tup)
			} else {
				_, _, err = m.InsertRight(tup)
			}
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(q, Grouping)
			if err != nil {
				t.Fatal(err)
			}
			got := &Result{Skyline: m.Skyline()}
			assertSameSkyline(t, fmt.Sprintf("trial %d step %d (k=%d)", trial, step, q.K), got, fresh)
		}
	}
}

func TestMaintainerDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	r1 := randRelation(rng, "r1", 40, 2, 0, 2, 5)
	r2 := randRelation(rng, "r2", 40, 2, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		if rng.Intn(2) == 0 && q.R1.Len() > 2 {
			if err := m.DeleteLeft(rng.Intn(q.R1.Len())); err != nil {
				t.Fatal(err)
			}
		} else if q.R2.Len() > 2 {
			if err := m.DeleteRight(rng.Intn(q.R2.Len())); err != nil {
				t.Fatal(err)
			}
		}
		fresh, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{Skyline: m.Skyline()}
		assertSameSkyline(t, fmt.Sprintf("delete step %d", step), got, fresh)
	}
	// Single-row deletes against relations this size must stay on the
	// incremental retract path — recomputing on every delete was the old
	// fallback behavior.
	_, recomputes := m.Counters()
	if recomputes != 0 {
		t.Errorf("single-row deletes took the recompute arm %d times; want the incremental retract path", recomputes)
	}
	if err := m.DeleteLeft(999); err == nil {
		t.Error("out-of-range delete accepted")
	}
}

func TestMaintainerDisplacement(t *testing.T) {
	// A dominant insert must displace the current skyline.
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{5, 5}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{5, 5}}})
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("initial skyline size %d, want 1", m.Len())
	}
	displaced, admitted, err := m.InsertLeft(dataset.Tuple{Key: "a", Attrs: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if displaced != 1 || admitted != 1 {
		t.Errorf("displaced=%d admitted=%d, want 1/1", displaced, admitted)
	}
	keys := m.sortedKeys()
	if len(keys) != 1 || keys[0] != [2]int{1, 0} {
		t.Errorf("skyline keys = %v, want [[1 0]]", keys)
	}
}

func TestMaintainerInsertNoPartners(t *testing.T) {
	// Inserting a tuple whose key matches nothing changes nothing.
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	displaced, admitted, err := m.InsertLeft(dataset.Tuple{Key: "zzz", Attrs: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if displaced != 0 || admitted != 0 {
		t.Errorf("displaced=%d admitted=%d, want 0/0", displaced, admitted)
	}
	if m.Len() != 1 {
		t.Errorf("skyline size %d, want 1", m.Len())
	}
}

// TestMaintainerAbsorbSharedRelation drives the service-layer insert
// pattern: two maintainers over queries sharing a relation, one physical
// append, absorbed by every maintainer — each must track a from-scratch
// recompute of its own query.
func TestMaintainerAbsorbSharedRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 6; trial++ {
		local := 1 + rng.Intn(3)
		agg := rng.Intn(2)
		groups := 1 + rng.Intn(3)
		shared := randRelation(rng, "shared", 6+rng.Intn(8), local, agg, groups, 5)
		rB := randRelation(rng, "b", 6+rng.Intn(8), local, agg, groups, 5)
		rC := randRelation(rng, "c", 6+rng.Intn(8), local, agg, groups, 5)
		qB := Query{R1: shared, R2: rB, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
		qB.K = qB.KMin()
		qC := Query{R1: shared, R2: rC, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
		qC.K = qC.Width()

		mB, err := NewMaintainer(qB)
		if err != nil {
			t.Fatal(err)
		}
		mC, err := NewMaintainer(qC)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			id, err := shared.Append(randTuple(rng, local+agg, groups, 5))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := mB.AbsorbBatch(Left, []int{id}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := mC.AbsorbBatch(Left, []int{id}); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				q Query
				m *Maintainer
			}{{qB, mB}, {qC, mC}} {
				fresh, err := Run(c.q, Grouping)
				if err != nil {
					t.Fatal(err)
				}
				got := &Result{Skyline: c.m.Skyline()}
				assertSameSkyline(t, fmt.Sprintf("absorb trial %d step %d", trial, step), got, fresh)
			}
		}
	}
}

func TestMaintainerAbsorbOutOfRange(t *testing.T) {
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	m, err := NewMaintainer(Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AbsorbBatch(Left, []int{5}); err == nil {
		t.Error("out-of-range absorb accepted")
	}
	if _, _, err := m.AbsorbBatch(Right, []int{-1}); err == nil {
		t.Error("negative absorb accepted")
	}
}

// TestMaintainerFrom checks a maintainer seeded from a previously computed
// answer behaves exactly like one that computed it itself.
func TestMaintainerFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	r1 := randRelation(rng, "r1", 10, 2, 1, 2, 5)
	r2 := randRelation(rng, "r2", 10, 2, 1, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 4}
	res, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainerFrom(q, res.Skyline)
	if err != nil {
		t.Fatal(err)
	}
	got := &Result{Skyline: m.Skyline()}
	assertSameSkyline(t, "seeded initial", got, res)
	for step := 0; step < 5; step++ {
		if _, _, err := m.InsertRight(randTuple(rng, 3, 2, 5)); err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{Skyline: m.Skyline()}
		assertSameSkyline(t, fmt.Sprintf("seeded step %d", step), got, fresh)
	}
	if _, err := NewMaintainerFrom(Query{}, nil); err == nil {
		t.Error("invalid query accepted by NewMaintainerFrom")
	}
}

// TestMaintainerClose locks in the lifecycle: Close is idempotent, every
// mutating method returns ErrMaintainerClosed afterwards, and Skyline
// returns nil (not an empty slice) once closed.
func TestMaintainerClose(t *testing.T) {
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{2, 2}}})
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Closed() {
		t.Fatal("fresh maintainer reports closed")
	}
	if sky := m.Skyline(); sky == nil {
		t.Fatal("live maintainer returned nil skyline")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !m.Closed() {
		t.Error("Closed() false after Close")
	}
	if sky := m.Skyline(); sky != nil {
		t.Errorf("closed Skyline() = %v, want nil", sky)
	}
	if m.Len() != 0 {
		t.Errorf("closed Len() = %d, want 0", m.Len())
	}
	tup := dataset.Tuple{Key: "a", Attrs: []float64{0, 0}}
	if _, _, err := m.InsertLeft(tup); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("InsertLeft after Close: err = %v, want ErrMaintainerClosed", err)
	}
	if _, _, err := m.InsertRight(tup); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("InsertRight after Close: err = %v, want ErrMaintainerClosed", err)
	}
	if _, _, err := m.AbsorbBatch(Left, []int{0}); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("AbsorbBatch(Left) after Close: err = %v, want ErrMaintainerClosed", err)
	}
	if _, _, err := m.AbsorbBatch(Right, []int{0}); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("AbsorbBatch(Right) after Close: err = %v, want ErrMaintainerClosed", err)
	}
	if err := m.DeleteLeft(0); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("DeleteLeft after Close: err = %v, want ErrMaintainerClosed", err)
	}
	if err := m.DeleteRight(0); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("DeleteRight after Close: err = %v, want ErrMaintainerClosed", err)
	}
	// The relations themselves are untouched by Close.
	if r1.Len() != 1 || r2.Len() != 1 {
		t.Error("Close mutated the relations")
	}
}

func TestMaintainerSchemaCheck(t *testing.T) {
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{{Key: "a", Attrs: []float64{1, 1}}})
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	m, err := NewMaintainer(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.InsertLeft(dataset.Tuple{Key: "a", Attrs: []float64{1}}); !errors.Is(err, dataset.ErrBadSchema) {
		t.Errorf("width mismatch: err = %v, want ErrBadSchema", err)
	}
	if _, err := NewMaintainer(Query{}); err == nil {
		t.Error("invalid query accepted by NewMaintainer")
	}
}
