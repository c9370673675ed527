package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

// TestLargeBatchBoundary pins who picks the arm: at the boundary batch size
// — one row short of the large-batch rule, then exactly at it — AbsorbBatch
// and RetractBatch take recomputeDiff exactly when largeBatch says so, on
// either side, and both arms land on a from-scratch recompute's answer.
func TestLargeBatchBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	base := Query{
		R1:   randRelation(rng, "r1", 48, 2, 1, 3, 6),
		R2:   randRelation(rng, "r2", 48, 2, 1, 3, 6),
		Spec: join.Spec{Cond: join.Equality, Agg: join.Sum},
		K:    4,
	}
	n := base.R1.Len()
	// The smallest batches the rule recomputes: post-append for absorb,
	// post-delete for retract.
	absorbB, retractB := 1, 1
	for !largeBatch(absorbB, n+absorbB) {
		absorbB++
	}
	for !largeBatch(retractB, n-retractB) {
		retractB++
	}
	tail := make([]dataset.Tuple, absorbB)
	for i := range tail {
		tail[i] = randTuple(rng, 3, 3, 6)
	}

	for _, absorb := range []bool{true, false} {
		boundary := retractB
		if absorb {
			boundary = absorbB
		}
		for _, side := range []Side{Left, Right} {
			for _, b := range []int{boundary - 1, boundary} {
				q := base
				q.R1, q.R2 = base.R1.Clone(), base.R2.Clone()
				m, err := NewMaintainer(q)
				if err != nil {
					t.Fatal(err)
				}
				rel := m.rel(side == Left)
				_, before := m.Counters()
				if absorb {
					first, err := rel.AppendBatch(tail[:b])
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, b)
					for i := range ids {
						ids[i] = first + i
					}
					_, _, err = m.AbsorbBatch(side, ids)
				} else {
					ids := pickIDs(rng, rel.Len(), b)
					del := SnapshotRows(rel, ids)
					if err := rel.DeleteBatch(ids); err != nil {
						t.Fatal(err)
					}
					l, r := side == Left, side == Right
					_, _, err = m.RetractBatch(l, r, ids, NewRetractSet(q, l, r, del))
				}
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("absorb=%v side=%v b=%d n=%d", absorb, side, b, rel.Len())
				rule := largeBatch(b, rel.Len())
				if rule != (b == boundary) {
					t.Fatalf("%s: rule says %v, so b is not at the boundary", label, rule)
				}
				if _, after := m.Counters(); (after-before == 1) != rule || after-before > 1 {
					t.Errorf("%s: recomputes moved %d → %d, rule says %v", label, before, after, rule)
				}
				fresh, err := Run(q, Grouping)
				if err != nil {
					t.Fatal(err)
				}
				assertPairsIdentical(t, label, m.Skyline(), fresh.Skyline)
			}
		}
	}
}

// BenchmarkMaintainerArms times both arms of each direction on each side of
// the large-batch rule: absorb and retract of b ∈ {n/8, n/4, n/2} rows at
// n = 2 000 per side (equality, 10 groups, k = 10), each arm called directly
// through a resident advanced over the batch, as the query service hands
// one over. Setup — relation clones, maintainer, resident, the physical
// append or delete — is untimed; a retract iteration times the eviction
// both arms share plus the arm.
func BenchmarkMaintainerArms(b *testing.B) {
	const n = 2000
	gen := func(name string, seed int64) *dataset.Relation {
		return datagen.MustGenerate(datagen.Config{
			Name: name, N: n, Local: 5, Agg: 2, Groups: 10, Dist: datagen.Independent, Seed: seed,
		})
	}
	base := Query{R1: gen("R1", 2017), R2: gen("R2", 2018), Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 10}
	start, err := Run(base, Grouping)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	tail := make([]dataset.Tuple, n/2)
	for i := range tail {
		attrs := make([]float64, base.R1.D())
		for j := range attrs {
			attrs[j] = rng.Float64()
		}
		tail[i] = dataset.Tuple{Key: fmt.Sprintf("g%04d", rng.Intn(10)), Attrs: attrs}
	}
	// setup returns a maintainer on a fresh copy of the base query and a
	// resident over it.
	setup := func(b *testing.B) (*Maintainer, *Resident) {
		q := base
		q.R1, q.R2 = base.R1.Clone(), base.R2.Clone()
		m, err := NewMaintainerFrom(q, start.Skyline)
		if err != nil {
			b.Fatal(err)
		}
		res, err := NewResident(q)
		if err != nil {
			b.Fatal(err)
		}
		return m, res
	}

	for _, batch := range []int{n / 8, n / 4, n / 2} {
		for _, incremental := range []bool{true, false} {
			arm := "recompute"
			if incremental {
				arm = "incremental"
			}
			b.Run(fmt.Sprintf("absorb/b=%d/%s", batch, arm), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, res := setup(b)
					first, err := m.q.R1.AppendBatch(tail[:batch])
					if err != nil {
						b.Fatal(err)
					}
					ids := make([]int, batch)
					for j := range ids {
						ids[j] = first + j
					}
					if err := res.Absorb(Left, ids); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if incremental {
						m.absorbIncremental(res, ids, true)
					} else if _, _, err := m.recomputeDiff(res); err != nil {
						b.Fatal(err)
					}
				}
			})
			ids := pickIDs(rand.New(rand.NewSource(int64(batch))), n, batch)
			b.Run(fmt.Sprintf("retract/b=%d/%s", batch, arm), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, res := setup(b)
					del := SnapshotRows(m.q.R1, ids)
					if err := m.q.R1.DeleteBatch(ids); err != nil {
						b.Fatal(err)
					}
					if err := res.Retract(Left, ids); err != nil {
						b.Fatal(err)
					}
					rs := NewRetractSet(m.q, true, false, del)
					b.StartTimer()
					m.evict(true, false, ids)
					if incremental {
						m.resurrect(res, rs)
					} else if _, _, err := m.recomputeDiff(res); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
