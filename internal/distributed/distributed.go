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
//  2. Verification round: every node is sent the other nodes' candidates
//     in compact form (join.Components: each distinct row's local
//     attributes once, plus per candidate two row indexes and its
//     aggregated values); it recombines the vectors, checks them against
//     its local join (with the usual target-set pruning) and votes. A
//     candidate survives if no peer finds a dominator.
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
	// FloatsShipped counts the attribute values round 2 moves across the
	// network: each batch's table rows and aggregated values
	// (join.Components.Floats).
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

// Transport is how the coordinator reaches the nodes of a cluster. Both
// rounds speak the compact candidate form (join.Components), so each
// distinct row's local attributes cross the network once per message.
type Transport interface {
	// Local runs node n's round 1: its local skyline in compact form, ids
	// global and tables checked, and the elapsed time the node reports for
	// it.
	Local(ctx context.Context, n int) (*join.Components, time.Duration, error)
	// Verify runs node n's round-2 vote: for each vector of the batch,
	// whether some joined tuple local to n k-dominates it.
	Verify(ctx context.Context, n int, batch *join.Components) ([]bool, error)
}

// Rounds runs the two-round scheme over the participating nodes of a
// cluster of the given size and returns the sorted answer. Round 1 runs on
// every participant in parallel. Round 2 runs only when more than one node
// participates and there are candidates: every participant is sent, in
// parallel, every candidate another node produced (a candidate's own node
// vouched for it in round 1) as one batch — the other participants'
// tables concatenated, their pair indexes offset to match — and a
// candidate survives if no vote says dominated. Each non-empty batch
// counts two messages, the batch and its votes, and its table and
// aggregate values as floats shipped. Only the survivors are recombined
// into joined tuples. The first failing call cancels its siblings and is
// returned.
func Rounds(ctx context.Context, t Transport, participants []int, nodes int) ([]join.Pair, Stats, error) {
	st := Stats{Nodes: nodes, CandidatesPerNode: make([]int, nodes)}
	locals := make([]*join.Components, len(participants))
	elapsed := make([]time.Duration, len(participants))
	err := fanOut(ctx, len(participants), func(ctx context.Context, i int) (err error) {
		locals[i], elapsed[i], err = t.Local(ctx, participants[i])
		return err
	})
	if err != nil {
		return nil, st, err
	}
	// Participant i's candidates are numbers off[i] to off[i+1]-1.
	off := make([]int, len(participants)+1)
	for i, n := range participants {
		st.CandidatesPerNode[n] = locals[i].Len()
		st.LocalTime += elapsed[i]
		off[i+1] = off[i] + locals[i].Len()
	}

	dominated := make([]bool, off[len(participants)])
	if len(participants) > 1 && len(dominated) > 0 {
		t0 := time.Now()
		batches := make([]*join.Components, len(participants))
		for i := range participants {
			batches[i] = foreign(locals, i)
			if batches[i].Len() > 0 {
				st.MessagesSent += 2
				st.FloatsShipped += batches[i].Floats()
			}
		}
		votes := make([][]bool, len(participants))
		err := fanOut(ctx, len(participants), func(ctx context.Context, i int) (err error) {
			if batches[i].Len() == 0 {
				return nil
			}
			votes[i], err = t.Verify(ctx, participants[i], batches[i])
			if err == nil && len(votes[i]) != batches[i].Len() {
				err = fmt.Errorf("distributed: node %d returned %d votes for %d vectors", participants[i], len(votes[i]), batches[i].Len())
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

	// Recombine the survivors into one flat arena.
	survivors, width := 0, 0
	for _, dom := range dominated {
		if !dom {
			survivors++
		}
	}
	for _, local := range locals {
		width = max(width, local.Width())
	}
	skyline := make([]join.Pair, 0, survivors)
	arena := make([]float64, 0, survivors*width)
	for i, local := range locals {
		for n := range local.Len() {
			if dominated[off[i]+n] {
				continue
			}
			p := local.Pairs[n]
			arena = local.AppendVector(arena, n)
			skyline = append(skyline, join.Pair{
				Left: local.LeftIDs[p[0]], Right: local.RightIDs[p[1]],
				Attrs: arena[len(arena)-width : len(arena) : len(arena)],
			})
		}
	}
	join.SortPairs(skyline)
	return skyline, st, nil
}

// foreign is verifier i's round-2 batch: every other participant's
// candidates, their tables concatenated in participant order and their
// pair indexes offset past the tables before them. Rows are shared, not
// copied, and no ids go along: a vote needs only the vectors.
func foreign(locals []*join.Components, i int) *join.Components {
	b := &join.Components{}
	for j, c := range locals {
		if j == i {
			continue
		}
		dl, dr := len(b.Lefts), len(b.Rights)
		b.Lefts = append(b.Lefts, c.Lefts...)
		b.Rights = append(b.Rights, c.Rights...)
		for _, p := range c.Pairs {
			b.Pairs = append(b.Pairs, [2]int{p[0] + dl, p[1] + dr})
		}
		b.Aggs = append(b.Aggs, c.Aggs...)
	}
	return b
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

func (c *cluster) Local(ctx context.Context, n int) (*join.Components, time.Duration, error) {
	start := time.Now()
	p := &c.parts[n]
	res, err := core.Exec(ctx, p.q, core.ExecOptions{Algorithm: core.Auto})
	if err != nil {
		return nil, 0, err
	}
	local := join.Split(res.Skyline, p.q.R1.Local, p.q.R2.Local)
	for i, id := range local.LeftIDs {
		local.LeftIDs[i] = p.leftOrigin[id]
	}
	for i, id := range local.RightIDs {
		local.RightIDs[i] = p.rightOrigin[id]
	}
	return &local, time.Since(start), nil
}

// Verify recombines the batch and votes through the engine, as a shard's
// service votes through its resident.
func (c *cluster) Verify(ctx context.Context, n int, batch *join.Components) ([]bool, error) {
	return core.AnyDominatorsContext(ctx, c.parts[n].q, batch.Vectors())
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
