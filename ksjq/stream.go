package ksjq

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/join"
)

// Stream evaluates one query as a range-over-func iterator: confirmed
// skyline tuples are yielded one at a time, and breaking out of the range
// loop stops the engine early.
//
//	for p, err := range ksjq.Stream(ctx, q, ksjq.Options{}) {
//		if err != nil { ... }
//		use(p)
//		if enough { break } // engine stops; no further verification work
//	}
//
// Semantics:
//
//   - The engine runs on the consumer's goroutine: each tuple is yielded
//     from inside the engine's emit, so the loop body runs between two
//     verification steps and the engine advances only as the body
//     returns. Stream starts no goroutine of its own.
//   - With the grouping or dominator-based algorithm (explicit, or the
//     one Auto picks) tuples are yielded the moment their cell confirms
//     them, in cell order, each detached from internal arenas; an early
//     break reaches the engine as its early stop and skips the remaining
//     verification (observable in Options.Stats).
//   - With the naive algorithm (explicit, or the one Auto picks) the full
//     answer is computed first and then yielded in canonical (Left,
//     Right) order; an early break saves only the yielding.
//   - Auto picks the arm a Run would: streaming never changes it.
//   - Options.Limit caps the stream; Options.Workers shards verification
//     (a cell verified in parallel yields after the whole cell).
//   - A failed run yields exactly one final (zero Pair, non-nil error)
//     element; iteration ends after it. Consumers must check err.
//   - Options.Stats, when non-nil, is filled when the engine returns
//     without error — the only way to observe phase timings and work
//     counters of a streamed run.
//
// The iterator is single-use: range over it once.
func Stream(ctx context.Context, q Query, opts Options) iter.Seq2[Pair, error] {
	return streamSeq(ctx, q, opts, nil)
}

// streamSeq is the shared iterator behind Stream and Prepared.Stream: one
// engine call whose emit is the consumer's yield.
func streamSeq(ctx context.Context, q Query, opts Options, res *core.Resident) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		if opts.K > 0 {
			q.K = opts.K
		}
		// stopped guards the iterator contract on its own: once yield has
		// returned false it is never called again, not even for the error.
		stopped := false
		out, err := core.Exec(ctx, q, core.ExecOptions{
			Algorithm: opts.Algorithm,
			Workers:   opts.Workers,
			Limit:     opts.Limit,
			Resident:  res,
			Emit: func(p join.Pair) bool {
				stopped = stopped || !yield(p, nil)
				return !stopped
			},
		})
		if opts.Stats != nil && out != nil {
			*opts.Stats = out.Stats
		}
		if err != nil && !stopped {
			yield(Pair{}, err)
		}
	}
}
