package ksjq

import (
	"context"
	"io"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/planner"
)

// The facade's data types are aliases of the engine's own, so values
// returned here interoperate 1:1 with anything built on the internal
// packages (and the facade provably cannot drift from the engine).
type (
	// Query is one KSJQ instance: two base relations, a join spec, and
	// the number K of attributes a dominator must win.
	Query = core.Query
	// Result is the answer to a query: the skyline plus phase timings.
	Result = core.Result
	// Stats is the per-phase timing and work-counter breakdown.
	Stats = core.Stats
	// Pair is one joined tuple: base indices plus the joined attributes.
	Pair = join.Pair
	// Relation is a named set of tuples with a skyline schema.
	Relation = dataset.Relation
	// Tuple is one base tuple: join key, optional band, attributes.
	Tuple = dataset.Tuple
	// Spec is a join specification: condition plus aggregator.
	Spec = join.Spec
	// Condition is the join predicate (equality, cross, band).
	Condition = join.Condition
	// Aggregator folds the trailing aggregate attributes of a pair.
	Aggregator = join.Aggregator
	// ReadOptions configures CSV relation loading.
	ReadOptions = dataset.ReadOptions

	// Plan is the planner's decision with its rationale.
	Plan = planner.Plan
	// Estimate summarizes sampled statistics of one query.
	Estimate = planner.Estimate
	// PlannerOptions controls estimation and planning.
	PlannerOptions = planner.Options

	// FindKAlgorithm selects the strategy for Problems 3 and 4.
	FindKAlgorithm = core.FindKAlgorithm
	// FindKResult is the answer to Problem 3 or 4.
	FindKResult = core.FindKResult

	// Maintainer keeps a query's answer current under inserts/deletes; it
	// alone decides, per batch, between incremental maintenance and a
	// from-scratch recompute.
	Maintainer = core.Maintainer
	// Side selects a relation side for batch absorption
	// (Maintainer.AbsorbBatch).
	Side = core.Side

	// CascadeQuery is a chain-join KSJQ over three or more relations.
	CascadeQuery = cascade.Query
	// CascadeResult is the answer to a cascaded query.
	CascadeResult = cascade.Result
	// CascadeStrategy selects the cascade evaluation plan.
	CascadeStrategy = cascade.Strategy
	// Combo is one joined combination of a cascaded answer.
	Combo = cascade.Combo
)

// Join conditions.
const (
	Equality      = join.Equality
	Cross         = join.Cross
	BandLess      = join.BandLess
	BandLessEq    = join.BandLessEq
	BandGreater   = join.BandGreater
	BandGreaterEq = join.BandGreaterEq
)

// Aggregators. Only Sum is strictly monotonic; Max and Min are accepted
// solely by the naive algorithm.
var (
	Sum = join.Sum
	Max = join.Max
	Min = join.Min
)

// Relation sides for batch absorption.
const (
	SideLeft  = core.Left
	SideRight = core.Right
)

// Find-k strategies (Algos 4-6).
const (
	FindKNaive  = core.FindKNaive
	FindKRange  = core.FindKRange
	FindKBinary = core.FindKBinary
)

// Cascade strategies.
const (
	CascadeNaive  = cascade.Naive
	CascadePruned = cascade.Pruned
)

// NewRelation builds a relation with local+agg attributes per tuple.
func NewRelation(name string, local, agg int, tuples []Tuple) (*Relation, error) {
	return dataset.New(name, local, agg, tuples)
}

// MustNewRelation is NewRelation, panicking on schema errors.
func MustNewRelation(name string, local, agg int, tuples []Tuple) *Relation {
	return dataset.MustNew(name, local, agg, tuples)
}

// ReadCSV loads a relation from CSV (header row; key column first, an
// optional band column, then the skyline attributes).
func ReadCSV(r io.Reader, opts ReadOptions) (*Relation, error) {
	return dataset.ReadCSV(r, opts)
}

// CountPairs returns the exact size of r1 ⋈ r2 under spec without
// materializing the join.
func CountPairs(r1, r2 *Relation, spec Spec) (int, error) {
	return join.CountPairs(r1, r2, spec)
}

func runCascade(ctx context.Context, q CascadeQuery, strategy CascadeStrategy) (*CascadeResult, error) {
	return cascade.Run(ctx, q, strategy)
}
