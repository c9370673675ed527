package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/join"
)

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess}
	for trial := 0; trial < 40; trial++ {
		agg := rng.Intn(3)
		r1 := randRelation(rng, "r1", 5+rng.Intn(40), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
		r2 := randRelation(rng, "r2", 5+rng.Intn(40), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
		cond := conds[rng.Intn(len(conds))]
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
		serial, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4, 7} {
			par, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			assertSameSkyline(t, fmt.Sprintf("trial %d workers=%d cond=%v k=%d", trial, workers, cond, q.K), par, serial)
		}
	}
}

func TestParallelValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	r1 := randRelation(rng, "r1", 5, 2, 0, 2, 5)
	r2 := randRelation(rng, "r2", 5, 2, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 1}
	if _, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: 4}); err == nil {
		t.Error("invalid k accepted")
	}
}

func TestParallelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	r1 := randRelation(rng, "r1", 60, 3, 0, 3, 6)
	r2 := randRelation(rng, "r2", 60, 3, 0, 3, 6)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	res, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SS1+res.Stats.SN1+res.Stats.NN1 != r1.Len() {
		t.Error("categorization sizes wrong under parallel run")
	}
	serial, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DominationTests != serial.Stats.DominationTests {
		// Work distribution must not change the amount of work: each
		// candidate early-exits at the same first dominator no matter
		// which worker or kernel visits it (see Stats.DominationTests).
		t.Errorf("parallel tests=%d serial=%d, want equal", res.Stats.DominationTests, serial.Stats.DominationTests)
	}
}

func TestProgressiveMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(214))
	for trial := 0; trial < 30; trial++ {
		agg := rng.Intn(3)
		r1 := randRelation(rng, "r1", 5+rng.Intn(30), 2, agg, 1+rng.Intn(3), 5)
		r2 := randRelation(rng, "r2", 5+rng.Intn(30), 2, agg, 1+rng.Intn(3), 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)

		var streamed []join.Pair
		res, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Emit: func(p join.Pair) bool {
			streamed = append(streamed, p)
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		join.SortPairs(streamed)
		got := Result{Skyline: streamed, Stats: res.Stats}
		assertSameSkyline(t, fmt.Sprintf("trial %d", trial), &got, batch)
	}
}

func TestProgressiveEmitsYesCellFirst(t *testing.T) {
	f1, f2 := paperFlights(t)
	q := Query{R1: f1, R2: f2, Spec: join.Spec{Cond: join.Equality}, K: 7}
	k1p, k2p := q.KPrimes()
	c1 := Categorize(f1, k1p, join.Equality, Left)
	c2 := Categorize(f2, k2p, join.Equality, Right)

	var order []string
	_, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Emit: func(p join.Pair) bool {
		order = append(order, fmt.Sprintf("%v⋈%v", c1.Cat[p.Left], c2.Cat[p.Right]))
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 {
		t.Fatal("nothing emitted")
	}
	if order[0] != "SS⋈SS" {
		t.Errorf("first emission from cell %s, want SS⋈SS (progressiveness)", order[0])
	}
	// Once a non-yes cell starts, no more SS⋈SS tuples may appear.
	seenOther := false
	for _, cell := range order {
		if cell != "SS⋈SS" {
			seenOther = true
		} else if seenOther {
			t.Errorf("SS⋈SS tuple emitted after verification began: %v", order)
		}
	}
}

// TestProgressiveEarlyStop stops both cell arms from the emit callback
// after two tuples: exactly two arrive, and the run skips the rest of the
// verification a full run does.
func TestProgressiveEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	r1 := randRelation(rng, "r1", 50, 3, 2, 3, 6)
	r2 := randRelation(rng, "r2", 50, 3, 2, 3, 6)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 7}
	for _, alg := range []Algorithm{Grouping, DominatorBased} {
		full, err := Run(q, alg)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Skyline) < 3 {
			t.Fatalf("%v: skyline of %d tuples, want at least 3 for an early-stop test", alg, len(full.Skyline))
		}
		want := 2
		count := 0
		res, err := Exec(context.Background(), q, ExecOptions{Algorithm: alg, Emit: func(join.Pair) bool {
			count++
			return count < want
		}})
		if err != nil {
			t.Fatal(err)
		}
		if count != want {
			t.Errorf("%v: emitted %d tuples after cancellation, want %d", alg, count, want)
		}
		if res.Stats.DominationTests >= full.Stats.DominationTests {
			t.Errorf("%v: stopped run did %d domination tests, full run %d — want fewer",
				alg, res.Stats.DominationTests, full.Stats.DominationTests)
		}
	}
}

func TestProgressiveValidates(t *testing.T) {
	q := Query{}
	emit := func(join.Pair) bool { return true }
	if _, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Emit: emit}); err == nil {
		t.Error("invalid query accepted")
	}
}

func BenchmarkParallelGrouping(b *testing.B) {
	rng := rand.New(rand.NewSource(216))
	r1 := randRelation(rng, "r1", 400, 5, 2, 10, 1000)
	r2 := randRelation(rng, "r2", 400, 5, 2, 10, 1000)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 11}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
