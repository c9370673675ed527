package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
)

// TestResidentStaleAfterEqualLengthChurn pins the generation check: a
// delete followed by an insert leaves a relation at its old length but
// with other rows, and a resident built before must refuse to serve it.
func TestResidentStaleAfterEqualLengthChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	for _, side := range []Side{Left, Right} {
		r1 := randRelation(rng, "r1", 20, 2, 1, 2, 5)
		r2 := randRelation(rng, "r2", 20, 2, 1, 2, 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 4}
		res, err := NewResident(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Exec(context.Background(), q, ExecOptions{Algorithm: DominatorBased}); err != nil {
			t.Fatal(err)
		}
		rel := r1
		if side == Right {
			rel = r2
		}
		if err := rel.Delete(3); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Append(randTuple(rng, 3, 2, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := res.Exec(context.Background(), q, ExecOptions{Algorithm: DominatorBased}); !errors.Is(err, ErrStaleResident) {
			t.Errorf("%s delete+append: Exec err = %v, want ErrStaleResident", side, err)
		}
		if err := res.Check(q); !errors.Is(err, ErrStaleResident) {
			t.Errorf("%s delete+append: Check err = %v, want ErrStaleResident", side, err)
		}
	}
}

// TestResidentHoldsKState pins what the table holds: the first run at a k
// publishes both categorizations and no target set, the second reads
// them and publishes its target sets, the third builds nothing
// (DominatorTime is exactly zero) and republishes nothing, all three do the
// same work, another k has its own entry, and Absorb and Retract empty the
// table but keep its k's: the first run after a write at a k asked before
// it publishes its target sets at once, at a new k categorizations only.
func TestResidentHoldsKState(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	r1 := randRelation(rng, "r1", 60, 3, 1, 3, 10)
	r2 := randRelation(rng, "r2", 60, 3, 1, 3, 10)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 7}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	o := ExecOptions{Algorithm: DominatorBased}
	first, err := res.Exec(ctx, q, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Candidates == 0 {
		t.Fatal("no candidates: the test checks nothing")
	}
	hk := res.held.byK[q.K]
	if hk == nil || hk.cats[Left] == nil || hk.cats[Right] == nil || len(hk.lefts) != 0 || len(hk.rights) != 0 {
		t.Fatalf("after the first run the table holds %+v, want both categorizations and no target set", hk)
	}
	second, err := res.Exec(ctx, q, o)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.DominatorTime == 0 {
		t.Error("the second run built no target set, though the first held none")
	}
	hk = res.held.byK[q.K]
	if hk.cats[Left] == nil || len(hk.lefts) == 0 || len(hk.rights) == 0 {
		t.Fatalf("after the second run the table holds %+v, want categorizations and target sets", hk)
	}
	third, err := res.Exec(ctx, q, o)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.DominatorTime != 0 {
		t.Errorf("third run built target sets for %v", third.Stats.DominatorTime)
	}
	if res.held.byK[q.K] != hk {
		t.Error("a run that built nothing republished the entry")
	}
	for _, run := range []*Result{second, third} {
		if first.Stats.DominationTests != run.Stats.DominationTests || first.Stats.Candidates != run.Stats.Candidates {
			t.Errorf("warm run did other work: %+v vs %+v", run.Stats, first.Stats)
		}
		assertSameSkyline(t, "warm", run, first)
	}

	q5 := q
	q5.K = 5
	if _, err := res.Exec(ctx, q5, ExecOptions{Algorithm: Grouping}); err != nil {
		t.Fatal(err)
	}
	if hk5 := res.held.byK[5]; hk5 == nil || hk5.cats[Left] == nil || len(hk5.lefts) != 0 {
		t.Errorf("a grouping run at k=5 published %+v, want categorizations only", hk5)
	}

	if err := res.Absorb(Left, appendTail(t, r1, rng, 2, 4, 3, 10)); err != nil {
		t.Fatal(err)
	}
	assertEmptied(t, "Absorb", res, 5, 7)
	// k = 7 was asked before the write: its first run after it publishes
	// its target sets as well as both categorizations.
	if _, err := res.Exec(ctx, q, o); err != nil {
		t.Fatal(err)
	}
	if hk := res.held.byK[q.K]; hk.cats[Left] == nil || hk.cats[Right] == nil || len(hk.lefts) == 0 || len(hk.rights) == 0 {
		t.Errorf("the first run at k=7 after the write published %+v, want categorizations and target sets", hk)
	}
	// k = 6 was not: its first run still publishes categorizations only.
	q6 := q
	q6.K = 6
	if _, err := res.Exec(ctx, q6, o); err != nil {
		t.Fatal(err)
	}
	if hk6 := res.held.byK[6]; hk6 == nil || hk6.cats[Left] == nil || hk6.cats[Right] == nil || len(hk6.lefts) != 0 || len(hk6.rights) != 0 {
		t.Errorf("the first run at k=6 published %+v, want categorizations only", hk6)
	}
	if err := r2.DeleteBatch([]int{0, 5}); err != nil {
		t.Fatal(err)
	}
	if err := res.Retract(Right, []int{0, 5}); err != nil {
		t.Fatal(err)
	}
	assertEmptied(t, "Retract", res, 5, 6, 7)
}

// assertEmptied checks the table a write left: exactly the k's it held
// before, each with no categorization and no target set.
func assertEmptied(t *testing.T, write string, res *Resident, ks ...int) {
	t.Helper()
	if res.held == nil || len(res.held.byK) != len(ks) || res.held.order2 != nil {
		t.Fatalf("%s left table %+v, want the k's %v and nothing else", write, res.held, ks)
	}
	for _, k := range ks {
		hk := res.held.byK[k]
		if hk == nil || hk == noHeld || hk.cats != [2]*Categorization{} || len(hk.lefts) != 0 || len(hk.rights) != 0 {
			t.Errorf("%s: the table holds %+v at k=%d, want an empty entry", write, hk, k)
		}
	}
}

// TestPublishAfterDropIsDiscarded pins the orphaned table: a run
// publishes into the table it read at its start, so state it built before
// a write dropped that table never lands in its successor.
func TestPublishAfterDropIsDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	r1 := randRelation(rng, "r1", 30, 2, 1, 2, 5)
	r2 := randRelation(rng, "r2", 30, 2, 1, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 4}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTargetSets(newEngineResident(q, &Stats{}, res))
	ts.categorization(Left)
	ts.left(r1.Attrs(0)[:2])
	res.drop()
	ts.publish()
	if _, _, hk := res.heldAt(q.K); hk != noHeld {
		t.Fatalf("state built before the drop was published: %+v", hk)
	}
}

// TestVotesPublishNoSets pins that votes read the held table but never
// add to it: their vectors come from outside the relations, so a stream of
// fresh vectors at one k must leave the table's target sets as they were.
func TestVotesPublishNoSets(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(507))
	r1 := randRelation(rng, "r1", 40, 3, 1, 3, 10)
	r2 := randRelation(rng, "r2", 40, 3, 1, 3, 10)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 7}
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs: the second publishes its target sets.
	for range 2 {
		if _, err := res.Exec(ctx, q, ExecOptions{Algorithm: DominatorBased}); err != nil {
			t.Fatal(err)
		}
	}
	sizes := func() (int, int) {
		_, _, hk := res.heldAt(q.K)
		return len(hk.lefts), len(hk.rights)
	}
	lefts, rights := sizes()
	if lefts == 0 || rights == 0 {
		t.Fatalf("held table has %d τ(u) and %d τ(v) sets after two runs, want some", lefts, rights)
	}
	for range 20 {
		vectors := make([][]float64, 8)
		for i := range vectors {
			vectors[i] = make([]float64, q.Width())
			for j := range vectors[i] {
				vectors[i][j] = rng.Float64() * 10
			}
		}
		if _, err := res.AnyDominators(ctx, q, vectors); err != nil {
			t.Fatal(err)
		}
		if _, err := res.Membership(ctx, q, [][2]int{{0, 0}}); err != nil && !strings.Contains(err.Error(), "not join-compatible") {
			t.Fatal(err)
		}
	}
	if l, r := sizes(); l != lefts || r != rights {
		t.Errorf("votes grew the held table: τ(u) sets %d → %d, τ(v) sets %d → %d", lefts, l, rights, r)
	}
}

// TestHeldStateOracle runs random interleavings of appends, deletes,
// window expiries (a delete of the oldest rows), queries at random k and
// votes over one resident that keeps its table across them. Every answer
// must equal a fresh engine's with no resident; every query's work
// (domination tests, candidates, categories) must equal a cold run over a
// twin resident carried through the same mutations whose table is dropped
// before each query; every vote and find-k search must equal its
// no-resident form. (Domination tests are compared with the twin, not the
// no-resident engine: an absorbed resident probes a grown equality bucket's
// new rows after its old ones, join.Index.Extend, so its counts follow the
// mutation history by design — the table must add nothing to that.)
func TestHeldStateOracle(t *testing.T) {
	ctx := context.Background()
	conds := []join.Condition{join.Equality, join.BandLessEq, join.Cross, join.Equality}
	warm, warmSets, checked := 0, 0, 0
	for trial := 0; trial < 16; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		cond := conds[trial%len(conds)]
		local, agg, groups, domain := 2+rng.Intn(2), rng.Intn(3), 1+rng.Intn(3), 5
		d := local + agg
		r1 := randRelation(rng, "r1", 25+rng.Intn(15), local, agg, groups, domain)
		r2 := randRelation(rng, "r2", 25+rng.Intn(15), local, agg, groups, domain)
		self := trial%4 == 3
		if self {
			r2 = r1
		}
		base := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		held, err := NewResident(base)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewResident(base)
		if err != nil {
			t.Fatal(err)
		}
		// sides lists the resident sides a mutation of rel advances.
		sides := func(rel *dataset.Relation) []Side {
			switch {
			case self:
				return []Side{Left, Right}
			case rel == r1:
				return []Side{Left}
			default:
				return []Side{Right}
			}
		}
		advance := func(rel *dataset.Relation, step func(*Resident, Side) error) {
			for _, res := range []*Resident{held, twin} {
				for _, side := range sides(rel) {
					if err := step(res, side); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		pick := func() *dataset.Relation {
			if rng.Intn(2) == 0 {
				return r1
			}
			return r2
		}
		for step := 0; step < 30; step++ {
			label := fmt.Sprintf("trial %d (%v, self %v) step %d", trial, cond, self, step)
			switch op := rng.Intn(10); {
			case op < 2: // append
				rel := pick()
				ts := make([]dataset.Tuple, 1+rng.Intn(4))
				for i := range ts {
					ts[i] = randTuple(rng, d, groups, domain)
				}
				first, err := rel.AppendBatch(ts)
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]int, len(ts))
				for i := range ids {
					ids[i] = first + i
				}
				advance(rel, func(res *Resident, side Side) error { return res.Absorb(side, ids) })
			case op < 4: // delete random rows, or expire the oldest
				rel := pick()
				if rel.Len() < 12 {
					continue
				}
				var ids []int
				if op == 2 {
					ids = rng.Perm(rel.Len())[:1+rng.Intn(3)]
					slices.Sort(ids)
				} else {
					for i := 0; i < 1+rng.Intn(4); i++ {
						ids = append(ids, i)
					}
				}
				if err := rel.DeleteBatch(ids); err != nil {
					t.Fatal(err)
				}
				advance(rel, func(res *Resident, side Side) error { return res.Retract(side, ids) })
			case op < 8: // one query, run one to three times in a row
				q := base
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
				alg := []Algorithm{DominatorBased, Grouping}[rng.Intn(2)]
				o := ExecOptions{Algorithm: alg, Workers: []int{0, 2}[rng.Intn(2)]}
				fresh, err := Exec(ctx, q, ExecOptions{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				for rep := 1 + rng.Intn(3); rep > 0; rep-- {
					if _, _, hk := held.heldAt(q.K); hk.cats[Left] != nil {
						warm++
					}
					got, err := held.Exec(ctx, q, o)
					if err != nil {
						t.Fatal(err)
					}
					twin.drop()
					cold, err := twin.Exec(ctx, q, o)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.Candidates > 0 {
						checked++
						if alg == DominatorBased && got.Stats.DominatorTime == 0 {
							warmSets++
						}
					}
					assertSameSkyline(t, label+" held vs fresh", got, fresh)
					assertSameSkyline(t, label+" held vs cold twin", got, cold)
					g, c := got.Stats, cold.Stats
					if g.DominationTests != c.DominationTests || g.Candidates != c.Candidates || g.YesEmitted != c.YesEmitted ||
						g.SS1 != c.SS1 || g.SN1 != c.SN1 || g.NN1 != c.NN1 || g.SS2 != c.SS2 || g.SN2 != c.SN2 || g.NN2 != c.NN2 {
						t.Fatalf("%s k=%d %v: held run did other work than the cold twin:\n%+v\n%+v", label, q.K, alg, g, c)
					}
					if f := fresh.Stats; g.SS1 != f.SS1 || g.SN1 != f.SN1 || g.NN1 != f.NN1 || g.SS2 != f.SS2 || g.SN2 != f.SN2 || g.NN2 != f.NN2 || g.Candidates != f.Candidates {
						t.Fatalf("%s k=%d: held categories differ from a fresh engine's:\n%+v\n%+v", label, q.K, g, f)
					}
				}
			case op < 9: // votes on rows' own vectors and on foreign ones
				q := base
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
				vectors := make([][]float64, 6)
				for i := range vectors {
					v := make([]float64, q.Width())
					for j := range v {
						v[j] = float64(rng.Intn(domain + 1))
					}
					vectors[i] = v
				}
				got, err := held.AnyDominators(ctx, q, vectors)
				if err != nil {
					t.Fatal(err)
				}
				want, err := AnyDominatorsContext(ctx, q, vectors)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d: held votes %v, fresh %v", label, q.K, got, want)
				}
			default: // find-k
				delta := rng.Intn(20)
				got, err := held.FindK(ctx, base, delta, FindKRange)
				if err != nil {
					t.Fatal(err)
				}
				want, err := FindKContext(ctx, base, delta, FindKRange)
				if err != nil {
					t.Fatal(err)
				}
				if got.K != want.K {
					t.Fatalf("%s delta=%d: held find-k %d, fresh %d", label, delta, got.K, want.K)
				}
			}
		}
	}
	if warm < 20 || warmSets < 5 || checked < 40 {
		t.Fatalf("only %d runs verified candidates, %d found a held categorization, %d dominator runs with candidates built no target set", checked, warm, warmSets)
	}
	t.Logf("%d runs verified candidates, %d found a held categorization, %d dominator runs with candidates built no target set", checked, warm, warmSets)
}
