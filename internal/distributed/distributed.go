// Package distributed simulates KSJQ over a partitioned cluster — the
// paper's second future-work item ("extend the algorithms to work in
// parallel, distributed ... settings", Sec. 8), in the spirit of the
// MapReduce k-dominant work it cites (Tian et al., Data4U'14).
//
// Partitioning is by join key: every group of both relations lives wholly
// on one node, so any joined tuple — candidate or dominator — is local to
// exactly one node. Evaluation then has two rounds:
//
//  1. Local round: each node runs the grouping algorithm on its partition
//     and produces local skyline candidates. A globally undominated pair
//     is locally undominated, so the global answer is a subset of the
//     union of local candidates.
//  2. Verification round: every node broadcasts its candidates' attribute
//     vectors; each peer checks them against its local join (with the
//     usual target-set pruning) and votes. A candidate survives if no
//     peer finds a dominator.
//
// The simulator counts exchanged messages and floats so the communication
// cost of the scheme is observable, which is the interesting metric a
// real deployment would tune.
package distributed

import (
	"errors"
	"fmt"
	"hash/fnv"
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
	// FloatsShipped counts attribute values moved across the simulated
	// network.
	FloatsShipped int
	// LocalTime and VerifyTime are the summed per-node busy times of the
	// two rounds (wall time on a real cluster would be the max, but sums
	// are deterministic enough for tests).
	LocalTime  time.Duration
	VerifyTime time.Duration
	Total      time.Duration
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

// LocalAlgorithm returns the algorithm the local round runs on each
// partition: the grouping algorithm, except under a non-strict aggregator
// (where target-set pruning is unsound and the naive algorithm is the
// correct fallback). The verification round makes the matching choice
// inside core.AnyDominators.
func LocalAlgorithm(q core.Query) core.Algorithm {
	if q.R1 != nil && q.R1.Agg > 0 && q.Spec.Agg.Fn != nil && !q.Spec.Agg.Strict {
		return core.Naive
	}
	return core.Grouping
}

// Run evaluates q on a simulated cluster of n nodes. Only equality joins
// can be key-partitioned across several nodes; other conditions are
// admitted only at nodes == 1, where the single partition holds both
// relations whole and the verification round is empty.
func Run(q core.Query, nodes int) (*Result, error) {
	if nodes <= 0 {
		return nil, ErrBadNodes
	}
	if nodes > 1 && q.Spec.Cond != join.Equality {
		return nil, fmt.Errorf("%w: got %v with %d nodes", ErrNotShardable, q.Spec.Cond, nodes)
	}
	alg := LocalAlgorithm(q)
	if err := q.Validate(alg); err != nil {
		return nil, err
	}
	start := time.Now()
	st := Stats{Nodes: nodes, CandidatesPerNode: make([]int, nodes)}

	// Partition both relations by hashed join key. origin maps the
	// partition-local tuple index back to the original index. The row
	// views carry attribute-column aliases; dataset.New copies them into
	// each partition's own columns.
	parts := make([]partition, nodes)
	for i := 0; i < q.R1.Len(); i++ {
		n := NodeOf(q.R1.Key(i), nodes)
		parts[n].left = append(parts[n].left, q.R1.Tuple(i))
		parts[n].leftOrigin = append(parts[n].leftOrigin, i)
	}
	for i := 0; i < q.R2.Len(); i++ {
		n := NodeOf(q.R2.Key(i), nodes)
		parts[n].right = append(parts[n].right, q.R2.Tuple(i))
		parts[n].rightOrigin = append(parts[n].rightOrigin, i)
	}

	// Round 1: local grouping-algorithm runs.
	t0 := time.Now()
	type candidate struct {
		node        int
		left, right int // original indices
		attrs       []float64
	}
	var candidates []candidate
	queries := make([]core.Query, nodes)
	for n := range parts {
		p := &parts[n]
		if len(p.left) == 0 || len(p.right) == 0 {
			continue
		}
		lq, err := p.query(q)
		if err != nil {
			return nil, err
		}
		queries[n] = lq
		res, err := core.Run(lq, alg)
		if err != nil {
			return nil, err
		}
		st.CandidatesPerNode[n] = len(res.Skyline)
		for _, pr := range res.Skyline {
			candidates = append(candidates, candidate{
				node:  n,
				left:  p.leftOrigin[pr.Left],
				right: p.rightOrigin[pr.Right],
				attrs: pr.Attrs,
			})
		}
	}
	st.LocalTime = time.Since(t0)

	// Round 2: every verifier node receives one batch holding all foreign
	// candidates, checks them against its local join, and returns one
	// verdict batch. A candidate's home node already vouched for it in
	// round 1.
	t0 = time.Now()
	dominated := make([]bool, len(candidates))
	for n := range parts {
		if len(parts[n].left) == 0 || len(parts[n].right) == 0 {
			continue
		}
		var batch [][]float64
		var batchIdx []int
		for ci, c := range candidates {
			if c.node != n && !dominated[ci] {
				batch = append(batch, c.attrs)
				batchIdx = append(batchIdx, ci)
			}
		}
		if len(batch) == 0 {
			continue
		}
		st.MessagesSent += 2 // candidate batch in, verdict batch out
		for _, v := range batch {
			st.FloatsShipped += len(v)
		}
		verdicts, err := core.AnyDominators(queries[n], batch)
		if err != nil {
			return nil, err
		}
		for bi, dom := range verdicts {
			if dom {
				dominated[batchIdx[bi]] = true
			}
		}
	}
	var skyline []join.Pair
	for ci, c := range candidates {
		if !dominated[ci] {
			skyline = append(skyline, join.Pair{Left: c.left, Right: c.right, Attrs: c.attrs})
		}
	}
	st.VerifyTime = time.Since(t0)

	join.SortPairs(skyline)
	st.Total = time.Since(start)
	return &Result{Skyline: skyline, Stats: st}, nil
}

type partition struct {
	left, right             []dataset.Tuple
	leftOrigin, rightOrigin []int
}

// query builds the node-local core.Query over this partition.
func (p *partition) query(q core.Query) (core.Query, error) {
	r1, err := dataset.New(q.R1.Name, q.R1.Local, q.R1.Agg, p.left)
	if err != nil {
		return core.Query{}, err
	}
	r2, err := dataset.New(q.R2.Name, q.R2.Local, q.R2.Agg, p.right)
	if err != nil {
		return core.Query{}, err
	}
	return core.Query{R1: r1, R2: r2, Spec: q.Spec, K: q.K}, nil
}

// NodeOf places a join-key symbol on a node: FNV-32a of the key modulo
// the node count. The real sharded deployment (internal/shard) uses the
// same function, so gateway placement and the simulator oracle agree on
// which node owns every group.
func NodeOf(key string, nodes int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nodes))
}
