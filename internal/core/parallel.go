package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/join"
)

// poolChunk is the candidate-range unit workers claim from a job's shared
// cursor. A multiple of 64, so two workers never touch the same keep-bitset
// word (each word belongs to exactly one chunk). Small enough that a
// single skewed cell splits into many claims — the work-stealing that lets
// extra workers help on one giant cell — and large enough that the atomic
// Add amortizes to noise.
const poolChunk = 256

// poolJob is one cell's verification published to the pool: the job is
// sent once per worker and each receipt pulls chunks
// [cursor, cursor+poolChunk) until the candidate list is exhausted. tests
// accumulates every receipt's domination-test count atomically — a fast
// worker may receive the job more than once (and another not at all), so
// the count cannot live in per-worker slots; the atomic sum is
// distribution-independent because each candidate's tests depend only on
// the candidate. The coordinator's wg.Wait orders all Adds before the
// flush into the engine stats.
type poolJob struct {
	ctx        context.Context
	targets    targetsFn
	candidates []join.Pair
	keep       []uint64
	cursor     atomic.Int64
	tests      atomic.Int64
	wg         sync.WaitGroup
}

// workerPool is the persistent verification pool: one per Exec run with
// Workers > 1, spawned before the first cell and shut down when the run
// returns. Workers are long-lived goroutines, each owning a private engine
// (its own Stats, scratch, and checker) reused across every cell of
// the run — the per-cell goroutine spawn and its per-worker allocations
// are gone. Cells are split by chunk, not by cell: all workers pull from
// the active cell's cursor, so a single skewed cell is shared instead of
// serializing the run behind one goroutine.
type workerPool struct {
	e       *engine
	workers int
	jobs    chan *poolJob
	wg      sync.WaitGroup
	job     poolJob // the in-flight job, reused across cells (one at a time)
	// chunks[w] counts the chunks worker w claimed over the pool's
	// lifetime — the scheduling tests' observation point (via
	// poolStatsHook); reads are ordered by each job's wg.
	chunks []int64
}

// poolStatsHook, when non-nil, receives the per-worker claimed-chunk counts
// of each pool as it shuts down. Test instrumentation only.
var poolStatsHook func(chunksPerWorker []int64)

func newWorkerPool(e *engine, workers int) *workerPool {
	p := &workerPool{
		e:       e,
		workers: workers,
		jobs:    make(chan *poolJob),
		chunks:  make([]int64, workers),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.run(w)
	}
	return p
}

// run is one worker's loop: drain chunks from the shared cursor, report
// the job's test count, next job. Each chunk is verified candidate by
// candidate, the worker's own checker pointed at the candidate's targets
// (which the coordinator built before publishing the job, so reading them
// writes nothing shared), clearing the keep bit of every dominated one; a
// cancelled context is noticed within cancelEvery candidates.
func (p *workerPool) run(w int) {
	defer p.wg.Done()
	local := Stats{}
	chk := &checker{e: newEngine(p.e.q, &local)}
	for job := range p.jobs {
		start := local.DominationTests
		n := len(job.candidates)
		for job.ctx.Err() == nil {
			lo := int(job.cursor.Add(poolChunk) - poolChunk)
			if lo >= n {
				break
			}
			p.chunks[w]++
			for i := lo; i < min(lo+poolChunk, n); i++ {
				if i%cancelEvery == 0 && job.ctx.Err() != nil {
					break
				}
				chk.use(job.targets(job.candidates[i].Attrs))
				if chk.dominates(job.candidates[i].Attrs) {
					job.keep[i>>6] &^= uint64(1) << uint(i&63)
				}
			}
		}
		job.tests.Add(local.DominationTests - start)
		job.wg.Done()
	}
}

// verify runs one cell's candidate filtering on the pool and blocks until
// every worker has drained the cursor. Domination-test counts are flushed
// into the coordinating engine's stats before returning, so Stats stay
// deterministic: each candidate's tests depend only on the candidate,
// never on which worker claimed it.
func (p *workerPool) verify(ctx context.Context, targets targetsFn, candidates []join.Pair, keep []uint64) error {
	job := &p.job
	job.ctx, job.targets, job.candidates, job.keep = ctx, targets, candidates, keep
	job.cursor.Store(0)
	job.tests.Store(0)
	job.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs <- job
	}
	job.wg.Wait()
	p.e.stats.DominationTests += job.tests.Load()
	return ctx.Err()
}

// close shuts the pool down: workers drain the channel close and exit.
// runCells defers it exactly once per run.
func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
	if poolStatsHook != nil {
		poolStatsHook(p.chunks)
	}
}
