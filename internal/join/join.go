// Package join provides the join machinery under the KSJQ algorithms:
// equality (hash) joins, the Cartesian product, non-equality band joins
// (Sec. 6.6), and the monotonic aggregation operators (Assumption 2) that
// combine aggregate attributes when two base tuples join.
package join

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Condition selects the join predicate between two base tuples u ∈ R1 and
// v ∈ R2.
type Condition int

const (
	// Equality joins on u.Key == v.Key (Assumption 1).
	Equality Condition = iota
	// Cross is the Cartesian product: every pair joins (Sec. 6.5).
	Cross
	// BandLess joins on u.Band < v.Band (e.g. arrival before departure).
	BandLess
	// BandLessEq joins on u.Band <= v.Band.
	BandLessEq
	// BandGreater joins on u.Band > v.Band.
	BandGreater
	// BandGreaterEq joins on u.Band >= v.Band.
	BandGreaterEq
)

// String returns the SQL-ish rendering of the condition.
func (c Condition) String() string {
	switch c {
	case Equality:
		return "R1.key = R2.key"
	case Cross:
		return "true"
	case BandLess:
		return "R1.band < R2.band"
	case BandLessEq:
		return "R1.band <= R2.band"
	case BandGreater:
		return "R1.band > R2.band"
	case BandGreaterEq:
		return "R1.band >= R2.band"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Token returns the condition's canonical short spelling — the one the
// CLI -join flag and the service's JSON API accept, and the one the answer
// cache normalizes query keys to.
func (c Condition) Token() string {
	switch c {
	case Equality:
		return "eq"
	case Cross:
		return "cross"
	case BandLess:
		return "lt"
	case BandLessEq:
		return "le"
	case BandGreater:
		return "gt"
	case BandGreaterEq:
		return "ge"
	default:
		return fmt.Sprintf("cond%d", int(c))
	}
}

// Reversed returns the condition with the operand roles swapped:
// c.Matches(u, v) == c.Reversed().Matches(v, u) for all tuples. Equality
// and Cross are symmetric; the band inequalities flip. The delete path uses
// this to probe a small index over removed rows from the surviving
// relation's side without materializing the transposed join.
func (c Condition) Reversed() Condition {
	switch c {
	case BandLess:
		return BandGreater
	case BandLessEq:
		return BandGreaterEq
	case BandGreater:
		return BandLess
	case BandGreaterEq:
		return BandLessEq
	default:
		return c
	}
}

// ParseCondition maps CLI and API spellings to a Condition. The empty
// string defaults to Equality.
func ParseCondition(s string) (Condition, error) {
	switch strings.ToLower(s) {
	case "", "eq", "equality":
		return Equality, nil
	case "cross", "cartesian":
		return Cross, nil
	case "lt":
		return BandLess, nil
	case "le":
		return BandLessEq, nil
	case "gt":
		return BandGreater, nil
	case "ge":
		return BandGreaterEq, nil
	default:
		return 0, fmt.Errorf("join: unknown join condition %q (want eq, cross, lt, le, gt or ge)", s)
	}
}

// Matches reports whether tuples u and v satisfy the condition. It reads
// row-shaped tuple values; hot paths use MatchesAt on the columns instead.
func (c Condition) Matches(u, v *dataset.Tuple) bool {
	switch c {
	case Equality:
		return u.Key == v.Key
	case Cross:
		return true
	case BandLess:
		return u.Band < v.Band
	case BandLessEq:
		return u.Band <= v.Band
	case BandGreater:
		return u.Band > v.Band
	case BandGreaterEq:
		return u.Band >= v.Band
	default:
		return false
	}
}

// MatchesAt reports whether tuple i of r1 and tuple j of r2 satisfy the
// condition, reading the relations' columns directly. Equality compares
// symbols when the relations share a table (self-join) and strings
// otherwise.
func (c Condition) MatchesAt(r1 *dataset.Relation, i int, r2 *dataset.Relation, j int) bool {
	switch c {
	case Equality:
		if r1.Symbols() == r2.Symbols() {
			return r1.KeyID(i) == r2.KeyID(j)
		}
		return r1.Key(i) == r2.Key(j)
	case Cross:
		return true
	case BandLess:
		return r1.Band(i) < r2.Band(j)
	case BandLessEq:
		return r1.Band(i) <= r2.Band(j)
	case BandGreater:
		return r1.Band(i) > r2.Band(j)
	case BandGreaterEq:
		return r1.Band(i) >= r2.Band(j)
	default:
		return false
	}
}

// Aggregator combines one aggregate attribute from each side of the join.
// Every provided aggregator is monotonic (Assumption 2): x1 <= x2 and
// y1 <= y2 imply Fn(x1,y1) <= Fn(x2,y2), which is what makes the SS/SN/NN
// categorization carry over to the aggregate variant unchanged.
type Aggregator struct {
	Name string
	Fn   func(x, y float64) float64
	// Strict reports strict monotonicity in each argument (x1 < x2 implies
	// Fn(x1,y) < Fn(x2,y)). The optimized KSJQ algorithms require it: a
	// non-strict aggregator can erase the strict attribute the pruning
	// theorems rely on.
	Strict bool
}

// IsSum reports whether agg is the built-in Sum aggregator, by function
// identity — a user-built aggregator that happens to be named "sum" does
// not qualify. Hot loops use it to inline the addition instead of calling
// through the function value on every aggregate attribute.
func IsSum(agg Aggregator) bool {
	return agg.Fn != nil &&
		reflect.ValueOf(agg.Fn).Pointer() == reflect.ValueOf(Sum.Fn).Pointer()
}

// Built-in monotonic aggregators.
var (
	Sum = Aggregator{Name: "sum", Strict: true, Fn: func(x, y float64) float64 { return x + y }}
	Max = Aggregator{Name: "max", Fn: func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	}}
	Min = Aggregator{Name: "min", Fn: func(x, y float64) float64 {
		if x < y {
			return x
		}
		return y
	}}
)

// ParseAggregator maps CLI and API spellings to a built-in aggregator. The
// empty string defaults to Sum, the only aggregator the optimized
// algorithms accept.
func ParseAggregator(s string) (Aggregator, error) {
	switch strings.ToLower(s) {
	case "", "sum":
		return Sum, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	default:
		return Aggregator{}, fmt.Errorf("join: unknown aggregator %q (want sum, max or min)", s)
	}
}

// Spec describes how two relations are joined.
type Spec struct {
	Cond Condition
	// Agg combines aggregate attributes. Zero value means Sum.
	Agg Aggregator
}

func (s Spec) aggregator() Aggregator {
	if s.Agg.Fn == nil {
		return Sum
	}
	return s.Agg
}

// ErrSchemaMismatch is returned when two relations cannot be joined because
// their aggregate-attribute counts differ.
var ErrSchemaMismatch = errors.New("join: relations have different aggregate attribute counts")

// CheckSchemas validates that r1 and r2 can be joined: the paper requires
// the a aggregate attributes to pair up one-to-one (Sec. 2.3).
func CheckSchemas(r1, r2 *dataset.Relation) error {
	if r1.Agg != r2.Agg {
		return fmt.Errorf("%w: %s has a=%d, %s has a=%d", ErrSchemaMismatch, r1.Name, r1.Agg, r2.Name, r2.Agg)
	}
	return nil
}

// Width returns the number of skyline attributes in the joined relation:
// l1 + l2 + a (Sec. 5.6); with a = 0 this is d1 + d2.
func Width(r1, r2 *dataset.Relation) int {
	return r1.Local + r2.Local + r1.Agg
}

// Combine materializes the joined attribute vector for u ∈ r1, v ∈ r2 into
// dst (allocating if dst lacks capacity) and returns it. Layout:
// [u.local..., v.local..., agg(u.agg_i, v.agg_i)...]. It reads row-shaped
// tuple values; hot paths use CombineAt on the columns instead.
func Combine(r1, r2 *dataset.Relation, u, v *dataset.Tuple, agg Aggregator, dst []float64) []float64 {
	dst = dst[:0]
	dst = append(dst, u.Attrs[:r1.Local]...)
	dst = append(dst, v.Attrs[:r2.Local]...)
	for i := 0; i < r1.Agg; i++ {
		dst = append(dst, agg.Fn(u.Attrs[r1.Local+i], v.Attrs[r2.Local+i]))
	}
	return dst
}

// CombineAt is Combine over row indices, reading the relations' attribute
// columns directly: contiguous stride-D() copies with no row
// materialization.
func CombineAt(r1, r2 *dataset.Relation, i, j int, agg Aggregator, dst []float64) []float64 {
	x, y := r1.Attrs(i), r2.Attrs(j)
	dst = dst[:0]
	dst = append(dst, x[:r1.Local]...)
	dst = append(dst, y[:r2.Local]...)
	for t := 0; t < r1.Agg; t++ {
		dst = append(dst, agg.Fn(x[r1.Local+t], y[r2.Local+t]))
	}
	return dst
}

// Pair is one joined tuple: indices of its two base tuples plus the
// materialized skyline attribute vector.
type Pair struct {
	Left, Right int
	Attrs       []float64
}

// SortPairs orders pairs by (Left, Right), the canonical order every
// answer is served in — which is what makes a maintained, a recomputed and
// a partition-merged skyline compare byte-identical.
func SortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Left != pairs[j].Left {
			return pairs[i].Left < pairs[j].Left
		}
		return pairs[i].Right < pairs[j].Right
	})
}

// Pairs materializes the full join r1 ⋈ r2 under the spec via an Index
// over r2 (hash buckets for equality, a band-sorted permutation for band
// conditions), so enumeration costs O((n1+n2) log n + matches) instead of
// O(n1·n2). Used by the naive KSJQ algorithm and by tests; the optimized
// algorithms avoid full materialization.
func Pairs(r1, r2 *dataset.Relation, spec Spec) ([]Pair, error) {
	if err := CheckSchemas(r1, r2); err != nil {
		return nil, err
	}
	left := make([]int, r1.Len())
	for i := range left {
		left[i] = i
	}
	return Materialize(r1, r2, left, NewFullIndex(r1, r2, spec.Cond), spec.aggregator()), nil
}

// CountPairs returns |r1 ⋈ r2| without materializing attribute vectors.
// Band conditions count partner ranges by binary search, so the cost is
// O((n1+n2) log n2) even when the answer is quadratic.
func CountPairs(r1, r2 *dataset.Relation, spec Spec) (int, error) {
	if err := CheckSchemas(r1, r2); err != nil {
		return 0, err
	}
	if spec.Cond == Cross {
		return r1.Len() * r2.Len(), nil
	}
	ix := NewFullIndex(r1, r2, spec.Cond)
	n := 0
	for i := 0; i < r1.Len(); i++ {
		n += len(ix.Partners(r1, i))
	}
	return n, nil
}

// ScanPairs is the retained O(n1·n2) nested-scan reference implementation
// of Pairs. It is the oracle the index property tests and the
// BenchmarkBandJoinNaive baseline compare against; production paths use
// the indexed Pairs.
func ScanPairs(r1, r2 *dataset.Relation, spec Spec) ([]Pair, error) {
	if err := CheckSchemas(r1, r2); err != nil {
		return nil, err
	}
	agg := spec.aggregator()
	var out []Pair
	for i := 0; i < r1.Len(); i++ {
		u := r1.Tuple(i)
		for j := 0; j < r2.Len(); j++ {
			v := r2.Tuple(j)
			if spec.Cond.Matches(&u, &v) {
				attrs := Combine(r1, r2, &u, &v, agg, make([]float64, 0, Width(r1, r2)))
				out = append(out, Pair{Left: i, Right: j, Attrs: attrs})
			}
		}
	}
	return out, nil
}

// ScanCountPairs is the nested-scan reference implementation of
// CountPairs, retained alongside ScanPairs as the benchmark baseline.
func ScanCountPairs(r1, r2 *dataset.Relation, spec Spec) (int, error) {
	if err := CheckSchemas(r1, r2); err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < r1.Len(); i++ {
		u := r1.Tuple(i)
		for j := 0; j < r2.Len(); j++ {
			v := r2.Tuple(j)
			if spec.Cond.Matches(&u, &v) {
				n++
			}
		}
	}
	return n, nil
}
