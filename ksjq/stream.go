package ksjq

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/join"
)

// Stream evaluates one query as a pull-based iterator: confirmed skyline
// tuples are yielded one at a time, and breaking out of the range loop
// stops the engine early — the iterator counterpart of Options.Emit, and
// the primary streaming surface.
//
//	for p, err := range ksjq.Stream(ctx, q, ksjq.Options{}) {
//		if err != nil { ... }
//		use(p)
//		if enough { break } // engine stops; no further verification work
//	}
//
// Semantics:
//
//   - With the grouping or dominator-based algorithm (explicit, or the
//     one Auto picks) tuples are yielded the moment their cell confirms
//     them, in cell order, each detached from internal arenas; an early
//     break reaches the engine as the existing early-stop and skips the
//     remaining verification (observable in Options.Stats).
//   - With the naive algorithm (explicit, or the one Auto picks) the full
//     answer is computed first and then yielded in canonical (Left,
//     Right) order; an early break saves only the yielding.
//   - Auto picks the arm a Run would: streaming never changes it.
//   - Options.Limit caps the stream; Options.Workers shards verification
//     (a cell verified in parallel yields after the cell, as with Emit).
//   - A failed run yields exactly one final (zero Pair, non-nil error)
//     element; iteration ends after it. Consumers must check err.
//   - Options.Stats, when non-nil, is filled when iteration ends —
//     the only way to observe phase timings and work counters of a
//     streamed run.
//
// The iterator is single-use: range over it once.
func Stream(ctx context.Context, q Query, opts Options) iter.Seq2[Pair, error] {
	return streamSeq(ctx, q, opts, nil)
}

// streamSeq is the shared iterator implementation behind Stream,
// Prepared.Stream, and (via run's Emit adapter) every Emit callback.
func streamSeq(ctx context.Context, q Query, opts Options, res *core.Resident) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		if opts.K > 0 {
			q.K = opts.K
		}
		calg, err := opts.Algorithm.coreAlgorithm()
		if err != nil {
			yield(Pair{}, err)
			return
		}
		// Run the engine in a producer goroutine and hand tuples over a
		// rendezvous channel, so the engine advances exactly as fast as
		// the consumer pulls (pull-based backpressure). Closing
		// stop makes the engine's next emit return false — the existing
		// early-stop — so a consumer break cancels the remaining work and
		// the producer always exits before the iterator returns.
		pairs := make(chan join.Pair)
		stop := make(chan struct{})
		done := make(chan struct{})
		var out *core.Result
		var runErr error
		go func() {
			defer close(done)
			out, runErr = core.Exec(ctx, q, core.ExecOptions{
				Algorithm: calg,
				Workers:   opts.Workers,
				Limit:     opts.Limit,
				Resident:  res,
				Emit: func(p join.Pair) bool {
					select {
					case pairs <- p:
						return true
					case <-stop:
						return false
					}
				},
			})
			close(pairs)
		}()
		defer func() {
			close(stop)
			<-done
			if opts.Stats != nil && out != nil {
				*opts.Stats = out.Stats
			}
		}()
		for p := range pairs {
			if !yield(p, nil) {
				return
			}
		}
		if runErr != nil {
			yield(Pair{}, runErr)
		}
	}
}
