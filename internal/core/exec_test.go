package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/join"
)

// countingCtx reports Canceled after `limit` Err() calls. The execution
// path propagates cancellation purely by polling Err(), so this cancels
// deterministically mid-run — no timers, no flaky sleeps — while staying
// safe for concurrent pollers (the parallel workers).
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func cancelAfter(limit int64) *countingCtx {
	return &countingCtx{Context: context.Background(), limit: limit}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// bigGroupingQuery returns an instance with plenty of "likely"/"may be"
// candidates so cancellation lands inside candidate verification.
func bigGroupingQuery(seed int64) Query {
	rng := rand.New(rand.NewSource(seed))
	r1 := randRelation(rng, "r1", 300, 5, 2, 8, 1000)
	r2 := randRelation(rng, "r2", 300, 5, 2, 8, 1000)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
	q.K = q.Width() - 1
	return q
}

func TestExecCancelledBeforeStart(t *testing.T) {
	q := bigGroupingQuery(401)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Naive, Grouping, DominatorBased} {
		if _, err := Exec(ctx, q, ExecOptions{Algorithm: alg}); !errors.Is(err, context.Canceled) {
			t.Errorf("alg %v: err = %v, want context.Canceled", alg, err)
		}
	}
	if _, err := Exec(ctx, q, ExecOptions{Algorithm: Grouping, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel: err = %v, want context.Canceled", err)
	}
	if _, err := FindKContext(ctx, q, 10, FindKBinary); !errors.Is(err, context.Canceled) {
		t.Errorf("find-k: err = %v, want context.Canceled", err)
	}
	if _, err := MembershipContext(ctx, q, [][2]int{{0, 0}}); err == nil {
		t.Error("membership under cancelled ctx succeeded")
	}
}

// TestExecCancelMidVerificationSerial cancels after the phase-boundary
// checks have passed, so the cancellation must be observed by the periodic
// check inside the serial verification loop.
func TestExecCancelMidVerificationSerial(t *testing.T) {
	q := bigGroupingQuery(403)
	// Sanity: the instance has candidates to verify.
	full, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Candidates < 2*cancelEvery {
		t.Fatalf("instance too small: %d candidates", full.Stats.Candidates)
	}
	ctx := cancelAfter(3) // survives Exec entry + categorization barrier, dies in verification
	res, err := Exec(ctx, q, ExecOptions{Algorithm: Grouping})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res=%v), want context.Canceled", err, res != nil)
	}
	if res != nil {
		t.Error("cancelled run returned a non-nil result")
	}
}

// TestExecCancelMidVerificationParallel cancels while worker goroutines
// are sharding a cell and asserts they all drain — no goroutine leaks —
// which the -race run also scrutinizes for unsynchronized shutdown.
func TestExecCancelMidVerificationParallel(t *testing.T) {
	q := bigGroupingQuery(405)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		ctx := cancelAfter(int64(3 + trial)) // vary where the cancel lands
		if _, err := Exec(ctx, q, ExecOptions{Algorithm: Grouping, Workers: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
	}
	// Exec joins its workers before returning, so the goroutine count must
	// settle back to the baseline (allow the runtime a moment to reap).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecCancelProgressive cancels a streaming run from inside the emit
// callback (the realistic shape: a client disconnects mid-stream) and
// checks the run stops with ctx.Err() without emitting further cells.
func TestExecCancelProgressive(t *testing.T) {
	q := bigGroupingQuery(407)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := Exec(ctx, q, ExecOptions{Algorithm: Grouping, Emit: func(p join.Pair) bool {
		emitted++
		if emitted == 1 {
			cancel()
		}
		return true
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	full, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if emitted >= len(full.Skyline) {
		t.Errorf("cancelled stream emitted the whole answer (%d tuples)", emitted)
	}
}

// TestExecOptionConflicts pins the exec-option validation: a parallel
// degree conflicts with an explicit naive run, the one arm without cells.
func TestExecOptionConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	r1 := randRelation(rng, "r1", 10, 3, 0, 2, 5)
	r2 := randRelation(rng, "r2", 10, 3, 0, 2, 5)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	o := ExecOptions{Algorithm: Naive, Workers: 2}
	if _, err := Exec(context.Background(), q, o); !errors.Is(err, ErrOptionConflict) {
		t.Errorf("opts %+v: err = %v, want ErrOptionConflict", o, err)
	}
}

// TestExecModesAgree is the unified-path property test: serial, parallel,
// and streaming runs of the same instance must produce identical answers
// on both cell arms, and combining Workers with Emit must too (parallel
// verification with an ordered stream).
func TestExecModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	conds := []join.Condition{join.Equality, join.Cross, join.BandLessEq}
	for trial := 0; trial < 25; trial++ {
		agg := rng.Intn(3)
		r1 := randRelation(rng, "r1", 5+rng.Intn(40), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
		r2 := randRelation(rng, "r2", 5+rng.Intn(40), 1+rng.Intn(3), agg, 1+rng.Intn(4), 5)
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: conds[rng.Intn(len(conds))], Agg: join.Sum}}
		q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
		for _, alg := range []Algorithm{Grouping, DominatorBased} {
			serial, err := Exec(context.Background(), q, ExecOptions{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8} {
				var streamed []join.Pair
				res, err := Exec(context.Background(), q, ExecOptions{
					Algorithm: alg,
					Workers:   workers,
					Emit:      func(p join.Pair) bool { streamed = append(streamed, p); return true },
				})
				if err != nil {
					t.Fatalf("trial %d %v workers %d: %v", trial, alg, workers, err)
				}
				if len(res.Skyline) != 0 {
					t.Fatalf("trial %d %v: streaming run also collected %d tuples", trial, alg, len(res.Skyline))
				}
				join.SortPairs(streamed)
				got := Result{Skyline: streamed}
				assertSameSkyline(t, fmt.Sprintf("%v stream vs serial", alg), &got, serial)
			}
		}
	}
}
