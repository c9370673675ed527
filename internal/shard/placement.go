package shard

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/distributed"
)

// rowLoc is where one global row lives: which shard, and at which local
// row index inside that shard's partition.
type rowLoc struct {
	shard int32
	local int32
}

// relPlace is the gateway's placement record for one relation: the
// authoritative global row numbering and its bidirectional mapping onto
// per-shard partitions.
//
// Global ids mirror the single-node numbering exactly: registration and
// inserts assign increasing ids in batch order, deletes compact
// preserving order — so a client that talks to the gateway sees the same
// row ids it would see from one ksjqd process over the same mutation
// history. That is the invariant the oracle tests pin.
//
// Rows are placed by distributed.NodeOf on the join-key symbol, so every
// join group is wholly local to one shard. Within a shard, local row
// order is the subsequence of global order (appends group in batch
// order, deletes compact both sides consistently); perShard[s] is
// therefore strictly increasing, which keeps per-shard delete batches
// sorted and per-shard answers locally ordered after mapping to global
// ids.
//
// Mutations split into a read-only plan (the per-shard batches the
// gateway commits over the wire) and an apply that folds in only the
// shards whose commits succeeded — so a shard failing mid-batch leaves
// the mapping agreeing with what the surviving shards actually hold.
type relPlace struct {
	// schema is the relation's Name, Local and Agg with no rows — the form
	// service.CheckRequest and core.ResolveAuto read a schema in.
	schema     *dataset.Relation
	version    uint64
	global     []rowLoc
	perShard   [][]int
	registered []bool
}

func newRelPlace(name string, local, agg, shards int) *relPlace {
	return &relPlace{
		schema:     dataset.MustNew(name, local, agg, nil),
		version:    1,
		perShard:   make([][]int, shards),
		registered: make([]bool, shards),
	}
}

// planInsert partitions a batch of tuples across shards by join key:
// batches[s] is what shard s must append (nil where a shard gets
// nothing). Read-only.
func (rp *relPlace) planInsert(ts []dataset.Tuple) [][]dataset.Tuple {
	shards := len(rp.perShard)
	batches := make([][]dataset.Tuple, shards)
	for _, t := range ts {
		s := distributed.NodeOf(t.Key, shards)
		batches[s] = append(batches[s], t)
	}
	return batches
}

// applyInsert extends the mapping with the batch's tuples, in batch
// order, for every shard whose commit succeeded (ok[s]).
func (rp *relPlace) applyInsert(ts []dataset.Tuple, ok []bool) {
	shards := len(rp.perShard)
	for _, t := range ts {
		s := distributed.NodeOf(t.Key, shards)
		if !ok[s] {
			continue
		}
		g := len(rp.global)
		rp.global = append(rp.global, rowLoc{shard: int32(s), local: int32(len(rp.perShard[s]))})
		rp.perShard[s] = append(rp.perShard[s], g)
	}
}

// planRemove maps a sorted batch of global row ids onto per-shard local
// delete batches, sorted ascending (monotonicity of perShard guarantees
// the order). Read-only.
func (rp *relPlace) planRemove(sorted []int) [][]int {
	del := make([][]int, len(rp.perShard))
	for _, g := range sorted {
		loc := rp.global[g]
		del[loc.shard] = append(del[loc.shard], int(loc.local))
	}
	return del
}

// applyRemove compacts the mapping around the deleted rows of every
// shard whose commit succeeded (ok[s]); rows on failed shards stay.
func (rp *relPlace) applyRemove(sorted []int, ok []bool) {
	applied := make([]int, 0, len(sorted))
	for _, g := range sorted {
		if ok[rp.global[g].shard] {
			applied = append(applied, g)
		}
	}
	if len(applied) == 0 {
		return
	}
	del := rp.planRemove(applied)
	// Compact the global map: drop deleted rows, renumber survivors on
	// both sides. A survivor's local id shifts down by the number of
	// deleted rows before it on the same shard — which the sorted
	// per-shard delete batches encode.
	w := 0
	for g, loc := range rp.global {
		j := sort.SearchInts(applied, g)
		if j < len(applied) && applied[j] == g {
			continue
		}
		shift := sort.SearchInts(del[loc.shard], int(loc.local))
		rp.global[w] = rowLoc{shard: loc.shard, local: loc.local - int32(shift)}
		w++
	}
	rp.global = rp.global[:w]
	for s := range rp.perShard {
		rp.perShard[s] = rp.perShard[s][:0]
	}
	for g, loc := range rp.global {
		rp.perShard[loc.shard] = append(rp.perShard[loc.shard], g)
	}
}

// toGlobal maps one shard-local row id to its global id.
func (rp *relPlace) toGlobal(shard, local int) int {
	return rp.perShard[shard][local]
}

// rows returns the number of rows shard s holds.
func (rp *relPlace) rows(s int) int { return len(rp.perShard[s]) }

// size returns the relation's global row count.
func (rp *relPlace) size() int { return len(rp.global) }
