// Package cascade extends KSJQ to more than two base relations, the case
// the paper handles "by cascading the joins" (Sec. 2.3). A chain
// R1 ⋈ R2 ⋈ … ⋈ Rm joins on equality keys left to right: R1.Key matches
// R2.Key, R2.Key2 matches R3.Key, and so on (middle relations carry two
// join keys). Each relation contributes its local attributes; the a
// aggregate attributes are folded across all m relations with a monotonic
// aggregator.
//
// Two evaluation strategies are provided:
//
//   - Naive folds the joins into one materialized relation and runs the
//     Two-Scan k-dominant skyline over it (the cascaded analogue of
//     Algorithm 1).
//   - Pruned generalizes Theorem 4 to chains, with one subtlety the
//     two-relation algorithms also respect: a k′-dominated tuple cannot
//     appear in a *result* (its same-group dominator joins identically and
//     wins ≥ k′i = k − Σ_{j≠i} l_j positions plus ties elsewhere), but —
//     k-dominance not being transitive — it may still be needed as a
//     *dominator* of other combinations. Candidates are therefore folded
//     over the k′-survivors, while the dominator pool is folded over a set
//     pruned only by full in-group dominance (full dominance is
//     transitive, so a fully-dominated tuple's role as dominator is always
//     inherited by its replacement).
package cascade

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/dom"
	"repro/internal/join"
	"repro/internal/kdominant"
	skyline2 "repro/internal/skyline"
)

// Combo is one joined result: the tuple index in each base relation plus
// the combined attribute vector (all locals left to right, then the folded
// aggregates).
type Combo struct {
	Indices []int
	Attrs   []float64
}

// Stats mirrors the two-relation phase breakdown.
type Stats struct {
	PruneTime time.Duration
	JoinTime  time.Duration
	SkyTime   time.Duration
	Total     time.Duration
	// PrunedPerRelation counts base tuples removed by the Theorem 4
	// generalization (Pruned strategy only).
	PrunedPerRelation []int
	// JoinedSize is the number of combinations materialized.
	JoinedSize int
}

// Result is the answer to a cascaded KSJQ.
type Result struct {
	Skyline []Combo
	Stats   Stats
}

// Strategy selects the evaluation plan.
type Strategy int

const (
	// Naive joins everything, then computes the k-dominant skyline.
	Naive Strategy = iota
	// Pruned removes group-dominated base tuples before joining.
	Pruned
)

// Validation errors.
var (
	ErrTooFewRelations = errors.New("cascade: need at least two relations")
	ErrBadK            = errors.New("cascade: k out of range")
)

// Query is a cascaded KSJQ instance.
type Query struct {
	// Relations in join order. All must share the same aggregate count.
	Relations []*dataset.Relation
	// K is the k-dominance parameter over Σ l_i + a joined attributes.
	// Must exceed max_i(d_i' ) where d_i' = Σ_{j≠i} l_j + a is the most any
	// single relation can be "carried" — equivalently, every relation must
	// be forced to contribute at least one attribute, mirroring the
	// two-relation restriction of Sec. 3.
	K int
	// Agg folds aggregate attributes; zero value means Sum. The Pruned
	// strategy requires a strictly monotonic aggregator.
	Agg join.Aggregator
}

// Width returns the number of skyline attributes in the joined relation.
func (q Query) Width() int {
	w := 0
	for _, r := range q.Relations {
		w += r.Local
	}
	if len(q.Relations) > 0 {
		w += q.Relations[0].Agg
	}
	return w
}

// KMin returns the smallest admissible k: every relation must contribute
// at least one attribute, so k must exceed the width reachable without the
// least-contributing relation.
func (q Query) KMin() int {
	maxCarried := 0
	for i := range q.Relations {
		carried := q.Width() - q.Relations[i].Local
		if carried > maxCarried {
			maxCarried = carried
		}
	}
	return maxCarried + 1
}

func (q Query) aggregator() join.Aggregator {
	if q.Agg.Fn == nil {
		return join.Sum
	}
	return q.Agg
}

// Validate checks the chain invariants.
func (q Query) Validate(strategy Strategy) error {
	if len(q.Relations) < 2 {
		return ErrTooFewRelations
	}
	a := q.Relations[0].Agg
	for _, r := range q.Relations {
		if r == nil {
			return errors.New("cascade: nil relation")
		}
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Agg != a {
			return fmt.Errorf("%w: %s has a=%d, want %d", join.ErrSchemaMismatch, r.Name, r.Agg, a)
		}
	}
	if q.K < q.KMin() || q.K > q.Width() {
		return fmt.Errorf("%w: k=%d, admissible range [%d, %d]", ErrBadK, q.K, q.KMin(), q.Width())
	}
	if strategy == Pruned && a > 0 && !q.aggregator().Strict {
		return errors.New("cascade: pruned strategy requires a strictly monotonic aggregator")
	}
	return nil
}

// cancelEvery is the batch size between context checks inside the fold
// and verification loops, mirroring the two-relation engine's bound: a
// cancelled context is noticed after at most this many combinations.
const cancelEvery = 256

// Run evaluates the cascaded query. The context bounds the whole
// evaluation — it is polled between chain steps and every cancelEvery
// combinations inside join folding and skyline verification, so a
// cancelled deadline aborts promptly with ctx.Err() (the same contract as
// core.Exec, closing the last public entry point that lacked one).
func Run(ctx context.Context, q Query, strategy Strategy) (*Result, error) {
	if err := q.Validate(strategy); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	st := Stats{PrunedPerRelation: make([]int, len(q.Relations))}

	var skyline []Combo
	if strategy == Pruned {
		// Candidate relations: k′-survivors. Dominator pool: tuples not
		// fully dominated within their group.
		candKeep := make([][]int, len(q.Relations))
		poolKeep := make([][]int, len(q.Relations))
		t0 := time.Now()
		for i, r := range q.Relations {
			candKeep[i] = survivors(q, i, r, kPrime(q, i))
			poolKeep[i] = survivors(q, i, r, r.D())
			st.PrunedPerRelation[i] = r.Len() - len(candKeep[i])
		}
		st.PruneTime = time.Since(t0)

		t0 = time.Now()
		pool, err := fold(ctx, q, poolKeep)
		if err != nil {
			return nil, err
		}
		candidates, err := fold(ctx, q, candKeep)
		if err != nil {
			return nil, err
		}
		st.JoinTime = time.Since(t0)
		st.JoinedSize = len(pool)

		// Any dominated candidate is dominated by a full-skyline member of
		// the pool (the skyline-verify lemma), so checking against the
		// pool's classic skyline suffices.
		t0 = time.Now()
		points := make([][]float64, len(pool))
		for i := range pool {
			points[i] = pool[i].Attrs
		}
		sky := skyline2.SFS(points)
		for n, c := range candidates {
			if n%cancelEvery == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			dominated := false
			for _, s := range sky {
				if sameIndices(pool[s].Indices, c.Indices) {
					continue
				}
				if dom.KDominates(pool[s].Attrs, c.Attrs, q.K) {
					dominated = true
					break
				}
			}
			if !dominated {
				skyline = append(skyline, c)
			}
		}
		st.SkyTime = time.Since(t0)
	} else {
		keep := make([][]int, len(q.Relations))
		for i, r := range q.Relations {
			keep[i] = all(r.Len())
		}
		t0 := time.Now()
		combos, err := fold(ctx, q, keep)
		if err != nil {
			return nil, err
		}
		st.JoinTime = time.Since(t0)
		st.JoinedSize = len(combos)

		t0 = time.Now()
		points := make([][]float64, len(combos))
		for i := range combos {
			points[i] = combos[i].Attrs
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, idx := range kdominant.TwoScan(points, q.K) {
			skyline = append(skyline, combos[idx])
		}
		st.SkyTime = time.Since(t0)
	}

	sort.Slice(skyline, func(i, j int) bool {
		a, b := skyline[i].Indices, skyline[j].Indices
		for t := range a {
			if a[t] != b[t] {
				return a[t] < b[t]
			}
		}
		return false
	})
	st.Total = time.Since(start)
	return &Result{Skyline: skyline, Stats: st}, nil
}

// kPrime returns the Theorem 4 categorization threshold for relation i:
// k′i = k − Σ_{j≠i} l_j over its base attributes.
func kPrime(q Query, i int) int {
	kp := q.K
	for j, other := range q.Relations {
		if j != i {
			kp -= other.Local
		}
	}
	return kp
}

// survivors returns the indices of relation i's tuples that are NOT
// kp-dominated within their join group. When kp < 1 no pruning is possible
// and all tuples survive.
func survivors(q Query, i int, r *dataset.Relation, kp int) []int {
	if kp < 1 {
		return all(r.Len())
	}
	pts := make([][]float64, r.Len())
	for t := range pts {
		pts[t] = r.Attrs(t)
	}
	groups := make(map[[2]int32][]int)
	for t := 0; t < r.Len(); t++ {
		key := groupKey(q, i, r, t)
		groups[key] = append(groups[key], t)
	}
	var out []int
	for _, idx := range groups {
		out = append(out, kdominant.TwoScanSubset(pts, idx, kp)...)
	}
	sort.Ints(out)
	return out
}

// groupKey returns the join group of tuple t within its chain position:
// the first relation groups on Key, middle relations on (Key, Key2), the
// last on Key. Two tuples in the same group join with exactly the same
// partners. Keys are compared as interned symbols — both columns live in
// the relation's own table, so equal symbols mean equal strings.
func groupKey(q Query, i int, r *dataset.Relation, t int) [2]int32 {
	switch {
	case i == 0, i == len(q.Relations)-1:
		return [2]int32{r.KeyID(t), -1}
	default:
		return [2]int32{r.KeyID(t), r.Key2ID(t)}
	}
}

// fold materializes the chain join over the surviving tuples left to
// right. R1 joins R2 on R1.Key = R2.Key; thereafter the accumulated
// combination's out-key is the latest relation's Key2 (middle) and joins
// the next relation's Key. The context is polled every cancelEvery
// accumulated combinations — chain joins can blow up multiplicatively, so
// the fold itself must be cancellable, not just the phases around it.
func fold(ctx context.Context, q Query, keep [][]int) ([]Combo, error) {
	agg := q.aggregator()
	a := q.Relations[0].Agg
	r0 := q.Relations[0]

	// outKey chains the join left to right as interned symbols: it is a
	// symbol of the *previous* relation's table, and each step's index is
	// built with that relation as the probe side, so chaining costs two
	// array lookups per probe — no string hashing along the chain.
	type partial struct {
		indices []int
		locals  []float64
		aggs    []float64
		outKey  int32
	}
	cur := make([]partial, 0, len(keep[0]))
	for _, t := range keep[0] {
		attrs := r0.Attrs(t)
		cur = append(cur, partial{
			indices: []int{t},
			locals:  append([]float64(nil), attrs[:r0.Local]...),
			aggs:    append([]float64(nil), attrs[r0.Local:]...),
			outKey:  r0.KeyID(t),
		})
	}
	for ri := 1; ri < len(q.Relations); ri++ {
		prev := q.Relations[ri-1]
		r := q.Relations[ri]
		last := ri == len(q.Relations)-1
		ix := join.NewIndex(prev, r, keep[ri], join.Equality)
		next := make([]partial, 0, len(cur))
		// sincePoll counts work units (outer tuples probed + combinations
		// appended) since the last context check, so the poll interval
		// holds whether outer tuples fan out to many partners or to none.
		sincePoll := 0
		for _, p := range cur {
			sincePoll++
			if sincePoll >= cancelEvery {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				sincePoll = 0
			}
			for _, tid := range ix.PartnersSym(prev, p.outKey) {
				t := int(tid)
				sincePoll++
				attrs := r.Attrs(t)
				np := partial{
					indices: append(append([]int(nil), p.indices...), t),
					locals:  append(append([]float64(nil), p.locals...), attrs[:r.Local]...),
					aggs:    make([]float64, a),
				}
				for j := 0; j < a; j++ {
					np.aggs[j] = agg.Fn(p.aggs[j], attrs[r.Local+j])
				}
				if !last {
					np.outKey = r.Key2ID(t)
				}
				next = append(next, np)
			}
		}
		cur = next
	}
	combos := make([]Combo, len(cur))
	for i, p := range cur {
		combos[i] = Combo{Indices: p.indices, Attrs: append(p.locals, p.aggs...)}
	}
	return combos, nil
}

// sameIndices reports whether two combos reference the same base tuples.
func sameIndices(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Dominates re-exports the joined-vector k-dominance test for callers that
// post-process combos.
func Dominates(a, b []float64, k int) bool { return dom.KDominates(a, b, k) }
