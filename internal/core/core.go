// Package core implements the paper's primary contribution: K-Dominant
// Skyline Join Queries (KSJQ). It provides the naïve baseline (Algo 1), the
// grouping algorithm (Algo 2), and the dominator-based algorithm (Algo 3),
// together with the SS/SN/NN categorization (Defs 1-3), target sets
// (Def 5), the aggregate variant (Secs 5.6/6.7), the Cartesian-product fast
// path (Sec 6.5), non-equality join handling (Sec 6.6), and the three
// find-k algorithms (Algos 4-6).
//
// Correctness notes relative to the paper (see DESIGN.md §3):
//
//   - The target-set membership predicate is collapsed to a single test on
//     the local attributes: x may be the R1-side of a dominator of any
//     joined tuple built from u only if x is preferred-or-equal to u on at
//     least k″1 = k − l2 − a local attributes. For a = 0 this is exactly
//     the paper's union of dominators, equal-in-k′ tuples, and the tuple
//     itself.
//   - For a ≥ 2 the paper's "yes" cell (SS1 ⋈ SS2) is not actually safe:
//     two aggregate attributes give a dominator pair enough slack to beat
//     an SS ⋈ SS tuple on aggregated sums without either component being
//     dominated at the base level. This implementation verifies SS ⋈ SS
//     tuples against their target sets whenever a ≥ 2, restoring
//     correctness at a small cost. With a ≤ 1 the paper's theorems hold
//     and the cell is emitted unchecked.
//   - The optimized algorithms require a strictly monotonic aggregator
//     (sum). Non-strict aggregators (max, min) can erase the strict
//     attribute Theorem 4's pruning relies on; they are accepted only by
//     the naïve algorithm.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
)

// Algorithm selects the KSJQ evaluation strategy. The zero value is Auto.
type Algorithm int

const (
	// Auto lets ResolveAuto pick one of the three per run; Result.Algorithm
	// reports the arm that ran.
	Auto Algorithm = iota
	// Naive joins first, then computes the k-dominant skyline (Algo 1).
	Naive
	// Grouping categorizes base tuples into SS/SN/NN and prunes or emits
	// whole cells of the fate table before joining (Algo 2).
	Grouping
	// DominatorBased additionally materializes explicit dominator sets so
	// "may be" tuples are verified against small joins (Algo 3).
	DominatorBased
)

// Algorithms lists all strategies in the order the paper's figures use.
var Algorithms = []Algorithm{Grouping, DominatorBased, Naive}

// String returns the one-letter label used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case Naive:
		return "N"
	case Grouping:
		return "G"
	case DominatorBased:
		return "D"
	case Auto:
		return "A"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Token returns the spelled-out strategy name the CLIs and the service's
// JSON API use ("naive", "grouping", "dominator"); String keeps the
// paper's one-letter figure labels.
func (a Algorithm) Token() string {
	switch a {
	case Naive:
		return "naive"
	case Grouping:
		return "grouping"
	case DominatorBased:
		return "dominator"
	case Auto:
		return "auto"
	default:
		return a.String()
	}
}

// ParseAlgorithm maps CLI and API spellings (full names and the paper's
// one-letter labels, case-insensitive) to a strategy; the empty string
// means Auto. This is the one spelling table both the ksjq facade and the
// query service delegate to.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "auto", "a":
		return Auto, nil
	case "naive", "n":
		return Naive, nil
	case "grouping", "g":
		return Grouping, nil
	case "dominator", "dominator-based", "d":
		return DominatorBased, nil
	default:
		return 0, fmt.Errorf("%w: %q (want auto, naive, grouping or dominator)", ErrUnknownAlgorithm, s)
	}
}

// Query is one KSJQ instance: two base relations, a join spec, and the
// number k of attributes a dominator must win.
type Query struct {
	R1, R2 *dataset.Relation
	Spec   join.Spec
	// K is the k-dominance parameter over the joined relation's
	// l1+l2+a skyline attributes. Must satisfy max{d1,d2} < K <= l1+l2+a.
	K int
}

// Validation errors.
var (
	ErrBadK             = errors.New("core: k out of range")
	ErrNonStrictAgg     = errors.New("core: optimized algorithms require a strictly monotonic aggregator with aggregate attributes")
	ErrUnknownAlgorithm = errors.New("core: unknown algorithm")
)

// Width returns the number of skyline attributes in the joined relation.
func (q Query) Width() int { return join.Width(q.R1, q.R2) }

// KMin returns the smallest admissible k, max{d1,d2}+1 (equivalently
// max{l1,l2}+a+1, Sec. 3).
func (q Query) KMin() int {
	d1, d2 := q.R1.D(), q.R2.D()
	if d1 > d2 {
		return d1 + 1
	}
	return d2 + 1
}

// KPrimes returns the categorization thresholds k′1 = k − l2 (= k − d2 when
// a = 0) and k′2 = k − l1, applied to the full base-attribute vectors
// (Secs 5.4, 5.6: k′i = k″i + a).
func (q Query) KPrimes() (k1, k2 int) {
	return q.K - q.R2.Local, q.K - q.R1.Local
}

// KDoublePrimes returns k″1 = k − l2 − a and k″2 = k − l1 − a, the minimum
// number of *local* attributes the same-side component of any dominator
// must win (Sec. 5.6). These drive the target-set predicate.
func (q Query) KDoublePrimes() (k1, k2 int) {
	a := q.R1.Agg
	return q.K - q.R2.Local - a, q.K - q.R1.Local - a
}

// Validate checks the query invariants for the given algorithm. Auto
// accepts a non-strict aggregator: ResolveAuto runs it naive.
func (q Query) Validate(alg Algorithm) error {
	if q.R1 == nil || q.R2 == nil {
		return errors.New("core: nil relation")
	}
	if err := q.R1.Validate(); err != nil {
		return err
	}
	if err := q.R2.Validate(); err != nil {
		return err
	}
	if err := join.CheckSchemas(q.R1, q.R2); err != nil {
		return err
	}
	if q.K < q.KMin() || q.K > q.Width() {
		return fmt.Errorf("%w: k=%d, admissible range (%d, %d]", ErrBadK, q.K, q.KMin()-1, q.Width())
	}
	if alg != Naive && alg != Auto && !q.Strict() {
		return fmt.Errorf("%w: aggregator %q", ErrNonStrictAgg, q.aggregator().Name)
	}
	switch alg {
	case Naive, Grouping, DominatorBased, Auto:
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(alg))
	}
}

// Strict reports whether the optimized algorithms are exact for q: it has
// no aggregate attributes, or a strictly monotonic aggregator (sum).
// Theorem 4's target-set pruning needs the strict attribute a non-strict
// aggregator (max, min) can erase.
func (q Query) Strict() bool {
	return q.R1.Agg == 0 || q.aggregator().Strict
}

func (q Query) aggregator() join.Aggregator {
	if q.Spec.Agg.Fn == nil {
		return join.Sum
	}
	return q.Spec.Agg
}

// Stats records the per-phase timing breakdown the paper's figures plot,
// plus work counters used by tests and ablations.
type Stats struct {
	// GroupingTime covers SS/SN/NN categorization of both base relations.
	// On a warm run over a Resident that holds this k's categorization it
	// is a table lookup, so it reads ≈ 0.
	GroupingTime time.Duration
	// JoinTime covers materializing joined tuples that could not be pruned.
	JoinTime time.Duration
	// DominatorTime covers explicit dominator-set construction
	// (dominator-based algorithm only). It is exactly 0 on a warm run over
	// a Resident that already holds every target set the run needs (from
	// the third run at a k on; the second still builds them).
	DominatorTime time.Duration
	// RemainingTime covers everything else (mostly domination checks).
	RemainingTime time.Duration
	// Total is the end-to-end wall time.
	Total time.Duration

	// Categorization sizes (|SS|, |SN|, |NN| per relation).
	SS1, SN1, NN1 int
	SS2, SN2, NN2 int
	// YesEmitted counts tuples emitted from the "yes" cell without checks.
	YesEmitted int
	// Candidates counts "likely"/"may be" joined tuples that needed a check.
	Candidates int
	// DominationTests counts k-dominance tests on joined attribute vectors.
	// The count is deterministic per query and algorithm: a candidate is
	// tested against its checker's (left, partner) pairs in probe order
	// until its first dominator, and that per-candidate sequence is the
	// same on the serial and worker-pool paths — Workers change only the
	// interleaving across candidates, never which tests run (target-set-
	// pruned lefts are skipped uncounted on every path). Early stops (Emit
	// returning false, Limit) end the run at path-dependent points and are
	// the one source of count differences.
	DominationTests int64
}

// Result is the answer to a KSJQ query.
type Result struct {
	// Skyline holds the k-dominant skyline of the joined relation, sorted
	// by (Left, Right) base-tuple indices.
	Skyline []join.Pair
	Stats   Stats
	// Algorithm is the arm that ran: the requested one, or ResolveAuto's
	// pick for Auto.
	Algorithm Algorithm
}

// Run evaluates the query with the selected algorithm. It is
// Exec(context.Background(), q, ExecOptions{Algorithm: alg}).
func Run(q Query, alg Algorithm) (*Result, error) {
	return Exec(context.Background(), q, ExecOptions{Algorithm: alg})
}

// compactAttrs re-backs the answer's attribute vectors with one arena
// sized to the skyline itself. Cell materialization arenas are sized to
// whole candidate cells; without this, one surviving pair would pin its
// entire cell's arena for as long as the result is held.
func compactAttrs(pairs []join.Pair) {
	if len(pairs) == 0 {
		return
	}
	w := len(pairs[0].Attrs)
	arena := make([]float64, 0, len(pairs)*w)
	for i := range pairs {
		arena = append(arena, pairs[i].Attrs...)
		pairs[i].Attrs = arena[len(arena)-w : len(arena) : len(arena)]
	}
}

// detach returns the pair with its attribute vector copied out of any
// shared cell arena, so holding the pair does not pin the arena.
func detach(p join.Pair) join.Pair {
	p.Attrs = append([]float64(nil), p.Attrs...)
	return p
}

// basePoints extracts the base attribute vectors of a relation as views
// into its flat attribute column: one slice-header allocation, no data
// copies, and consecutive points are contiguous in memory.
func basePoints(r *dataset.Relation) [][]float64 {
	pts := make([][]float64, r.Len())
	for i := range pts {
		pts[i] = r.Attrs(i)
	}
	return pts
}
