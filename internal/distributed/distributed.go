// Package distributed is KSJQ over a partitioned cluster — the paper's
// second future-work item ("extend the algorithms to work in parallel,
// distributed ... settings", Sec. 8), in the spirit of the MapReduce
// k-dominant work it cites (Tian et al., Data4U'14).
//
// Partitioning is by join key: every group of both relations lives wholly
// on one node, so any joined tuple — candidate or dominator — is local to
// exactly one node. Evaluation then has two rounds:
//
//  1. Local round: each node runs "auto" (core.ResolveAuto) on its
//     partition and produces local skyline candidates. A globally undominated pair
//     is locally undominated, so the global answer is a subset of the
//     union of local candidates.
//  2. Verification round: every node is sent the other nodes' candidates'
//     attribute vectors; it checks them against its local join (with the
//     usual target-set pruning) and votes. A candidate survives if no
//     peer finds a dominator.
//
// Rounds is the one coordinator of that scheme, written against a
// two-method Transport. Run is the in-process simulation: it partitions
// the relations itself (NodeOf) and evaluates each node with the engine
// directly. The sharded gateway (internal/shard) runs the same Rounds over
// HTTP to real shard processes. The communication cost — messages and
// floats exchanged — is counted in one place, so both report it alike.
package distributed

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// Stats describes one distributed run.
type Stats struct {
	Nodes int
	// CandidatesPerNode is the number of local candidates each node
	// produced in round 1.
	CandidatesPerNode []int
	// MessagesSent counts point-to-point messages (candidate batches and
	// verdict batches).
	MessagesSent int
	// FloatsShipped counts attribute values moved across the network.
	FloatsShipped int
	// LocalTime is the sum of the round-1 elapsed times the nodes report
	// (their busy time; the round's wall time is nearer the largest).
	// VerifyTime is round 2's wall time.
	LocalTime  time.Duration
	VerifyTime time.Duration
	// Total is the caller's end-to-end time; Rounds leaves it zero.
	Total time.Duration
}

// Result is the distributed answer; pairs reference the original
// relations' tuple indices, exactly like core.Result.
type Result struct {
	Skyline []join.Pair
	Stats   Stats
}

// ErrBadNodes is returned for a non-positive node count.
var ErrBadNodes = errors.New("distributed: node count must be positive")

// ErrNotShardable is returned when a join cannot be key-partitioned
// across more than one node: only equality joins place every joined pair
// wholly on one node. A single-node cluster trivially co-locates
// everything, so any condition is admitted there.
var ErrNotShardable = errors.New("distributed: only equality joins can be key-partitioned across multiple nodes")

// CheckShardable refuses a join condition that cannot be key-partitioned
// across the given number of nodes.
func CheckShardable(cond join.Condition, nodes int) error {
	if nodes > 1 && cond != join.Equality {
		return fmt.Errorf("%w: got %v with %d nodes", ErrNotShardable, cond, nodes)
	}
	return nil
}

// Transport is how the coordinator reaches the nodes of a cluster.
type Transport interface {
	// Local runs node n's round 1: its local skyline, pairs in global row
	// ids, and the elapsed time the node reports for it.
	Local(ctx context.Context, n int) ([]join.Pair, time.Duration, error)
	// Verify runs node n's round-2 vote: for each vector, whether some
	// joined tuple local to n k-dominates it.
	Verify(ctx context.Context, n int, vectors [][]float64) ([]bool, error)
}

// Rounds runs the two-round scheme over the participating nodes of a
// cluster of the given size and returns the sorted answer. Round 1 runs on
// every participant in parallel. Round 2 runs only when more than one node
// participates and there are candidates: every participant is sent, in
// parallel, every candidate another node produced (a candidate's own node
// vouched for it in round 1), and a candidate survives if no vote says
// dominated. Each non-empty batch counts two messages, the batch and its
// votes. The first failing call cancels its siblings and is returned.
func Rounds(ctx context.Context, t Transport, participants []int, nodes int) ([]join.Pair, Stats, error) {
	st := Stats{Nodes: nodes, CandidatesPerNode: make([]int, nodes)}
	locals := make([][]join.Pair, len(participants))
	elapsed := make([]time.Duration, len(participants))
	err := fanOut(ctx, len(participants), func(ctx context.Context, i int) (err error) {
		locals[i], elapsed[i], err = t.Local(ctx, participants[i])
		return err
	})
	if err != nil {
		return nil, st, err
	}
	// Participant i's candidates are cands[off[i]:off[i+1]].
	var cands []join.Pair
	off := make([]int, len(participants)+1)
	for i, n := range participants {
		st.CandidatesPerNode[n] = len(locals[i])
		st.LocalTime += elapsed[i]
		cands = append(cands, locals[i]...)
		off[i+1] = len(cands)
	}

	dominated := make([]bool, len(cands))
	if len(participants) > 1 && len(cands) > 0 {
		t0 := time.Now()
		batches := make([][][]float64, len(participants))
		for i := range participants {
			for c, p := range cands {
				if c < off[i] || c >= off[i+1] {
					batches[i] = append(batches[i], p.Attrs)
					st.FloatsShipped += len(p.Attrs)
				}
			}
			if len(batches[i]) > 0 {
				st.MessagesSent += 2
			}
		}
		votes := make([][]bool, len(participants))
		err := fanOut(ctx, len(participants), func(ctx context.Context, i int) (err error) {
			if len(batches[i]) == 0 {
				return nil
			}
			votes[i], err = t.Verify(ctx, participants[i], batches[i])
			if err == nil && len(votes[i]) != len(batches[i]) {
				err = fmt.Errorf("distributed: node %d returned %d votes for %d vectors", participants[i], len(votes[i]), len(batches[i]))
			}
			return err
		})
		if err != nil {
			return nil, st, err
		}
		for i, v := range votes {
			for b, dom := range v {
				if b >= off[i] {
					b += off[i+1] - off[i] // skip the verifier's own candidates
				}
				dominated[b] = dominated[b] || dom
			}
		}
		st.VerifyTime = time.Since(t0)
	}

	skyline := make([]join.Pair, 0, len(cands))
	for c, p := range cands {
		if !dominated[c] {
			skyline = append(skyline, p)
		}
	}
	join.SortPairs(skyline)
	return skyline, st, nil
}

// fanOut runs call(ctx, i) for every i in [0, n) concurrently and returns
// the first error, cancelling the context the others run under as soon as
// it occurs.
func fanOut(ctx context.Context, n int, call func(context.Context, int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(ctx, i); err != nil {
				once.Do(func() { first = err; cancel() })
			}
		}()
	}
	wg.Wait()
	return first
}

// Run evaluates q on a simulated cluster of n nodes. Only equality joins
// can be key-partitioned across several nodes; other conditions are
// admitted only at nodes == 1, where the single partition holds both
// relations whole and the verification round is empty.
func Run(q core.Query, nodes int) (*Result, error) {
	if nodes <= 0 {
		return nil, ErrBadNodes
	}
	if err := CheckShardable(q.Spec.Cond, nodes); err != nil {
		return nil, err
	}
	c := &cluster{parts: make([]partition, nodes)}
	if err := q.Validate(core.Auto); err != nil {
		return nil, err
	}
	start := time.Now()

	// Partition both relations by hashed join key. origin maps the
	// partition-local tuple index back to the original index. The row
	// views carry attribute-column aliases; dataset.New copies them into
	// each partition's own columns.
	left, right := make([][]dataset.Tuple, nodes), make([][]dataset.Tuple, nodes)
	for i := 0; i < q.R1.Len(); i++ {
		n := NodeOf(q.R1.Key(i), nodes)
		left[n] = append(left[n], q.R1.Tuple(i))
		c.parts[n].leftOrigin = append(c.parts[n].leftOrigin, i)
	}
	for i := 0; i < q.R2.Len(); i++ {
		n := NodeOf(q.R2.Key(i), nodes)
		right[n] = append(right[n], q.R2.Tuple(i))
		c.parts[n].rightOrigin = append(c.parts[n].rightOrigin, i)
	}
	var participants []int
	for n := range c.parts {
		if len(left[n]) == 0 || len(right[n]) == 0 {
			continue
		}
		r1, err := dataset.New(q.R1.Name, q.R1.Local, q.R1.Agg, left[n])
		if err != nil {
			return nil, err
		}
		r2, err := dataset.New(q.R2.Name, q.R2.Local, q.R2.Agg, right[n])
		if err != nil {
			return nil, err
		}
		c.parts[n].q = core.Query{R1: r1, R2: r2, Spec: q.Spec, K: q.K}
		participants = append(participants, n)
	}

	skyline, st, err := Rounds(context.Background(), c, participants, nodes)
	if err != nil {
		return nil, err
	}
	st.Total = time.Since(start)
	return &Result{Skyline: skyline, Stats: st}, nil
}

// cluster is the in-process Transport: node n evaluates partition n with
// the engine directly, resolving Auto over its partition as a shard's
// "auto" query does.
type cluster struct {
	parts []partition
}

type partition struct {
	q                       core.Query
	leftOrigin, rightOrigin []int
}

func (c *cluster) Local(ctx context.Context, n int) ([]join.Pair, time.Duration, error) {
	start := time.Now()
	p := &c.parts[n]
	res, err := core.Exec(ctx, p.q, core.ExecOptions{Algorithm: core.Auto})
	if err != nil {
		return nil, 0, err
	}
	for i := range res.Skyline {
		pr := &res.Skyline[i]
		pr.Left, pr.Right = p.leftOrigin[pr.Left], p.rightOrigin[pr.Right]
	}
	return res.Skyline, time.Since(start), nil
}

func (c *cluster) Verify(ctx context.Context, n int, vectors [][]float64) ([]bool, error) {
	return core.AnyDominatorsContext(ctx, c.parts[n].q, vectors)
}

// NodeOf places a join-key symbol on a node: FNV-32a of the key modulo
// the node count. The real sharded deployment (internal/shard) uses the
// same function, so gateway placement and the simulator agree on which
// node owns every group.
func NodeOf(key string, nodes int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nodes))
}
