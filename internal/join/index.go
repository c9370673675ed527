package join

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// Index is an immutable join index over (a subset of) one side of a join —
// by convention the right side, R2. It replaces per-probe condition scans
// with O(log n + matches) partner enumeration:
//
//   - Equality: buckets keyed on the target relation's interned key
//     symbols, plus a translation table mapping the probe relation's
//     symbols onto the target's — built once at index construction, so a
//     probe is two array lookups with no string hashing.
//   - Band conditions: a permutation of the indexed subset sorted by
//     ascending band; Partners binary-searches the boundary and returns
//     the matching contiguous range of the permutation.
//   - Cross: Partners returns the whole subset.
//
// Row ids are held as int32 (a relation's rows are int-indexed, but the
// dominator algorithm holds one index per target set, and half-width ids
// halve them); dataset.MaxRows keeps every relation's ids in that range.
//
// An Index is never mutated by readers, so it is safe to share across
// concurrent readers (the parallel checker relies on this). Partner slices
// are views into the index: callers must not modify them. The writer entry
// points are Extend and Retract, which fold appended or deleted target rows
// into the existing structures; they require the same exclusion from
// readers that mutating the underlying relation does.
type Index struct {
	cond Condition
	// n is the number of indexed tuples.
	n int
	// ids holds the indexed subset once, laid out for the condition:
	//   - Equality (dense layout): counting-sorted by target key symbol, so
	//     symbol s's bucket is ids[starts[s]:starts[s+1]]; within a bucket
	//     rows keep build order, which preserves a probe-priority ordering
	//     of the subset. The dense layout is used when the subset is a
	//     meaningful fraction of the symbol space.
	//   - Band conditions: sorted by ascending band, bands[i] being the band
	//     of ids[i] — kept separate so the binary search touches a flat
	//     float64 array instead of chasing row accessors.
	//   - Cross: build order, the whole answer of every probe.
	ids    []int32
	starts []int32
	bands  []float64
	// bucketMap replaces ids/starts for small equality subsets over large
	// symbol spaces, keeping index construction O(|subset|) instead of
	// O(|symbols|) (the dominator algorithm builds one index per
	// candidate's target set). Its buckets are capped views into one array.
	bucketMap map[int32][]int32
	// kt translates probe key symbols onto target symbols.
	kt *KeyTrans
	// probe is the relation the index is probed by (it may equal target);
	// Extend rebuilds the key translation from it when either symbol table
	// has grown since construction.
	probe *dataset.Relation
	// target is the indexed relation; its symbol table resolves probe
	// symbols interned after the index was built.
	target *dataset.Relation
}

// NewIndex builds the index for the given condition over subset, a list of
// tuple indices into r — taken literally, so a nil or empty subset yields
// an empty index (cell lists are often legitimately empty). probe is the
// relation whose tuples will probe the index (it may be r itself); for
// equality it fixes the symbol translation, for other conditions it is
// ignored. Use NewFullIndex to index the whole relation. The subset is
// copied; the relations are only read.
func NewIndex(probe, r *dataset.Relation, subset []int, cond Condition) *Index {
	return NewIndexTrans(probe, r, subset, cond, nil)
}

// NewIndexTrans is NewIndex with a caller-supplied key translation. The
// translation depends only on the two relations' append-only symbol
// tables, so callers that build many subset indexes over one relation
// pair (the engine: one per cell, one per dominator-set checker) build a
// KeyTrans once and amortize the per-symbol pass; kt == nil builds one.
func NewIndexTrans(probe, r *dataset.Relation, subset []int, cond Condition, kt *KeyTrans) *Index {
	ix := &Index{cond: cond, n: len(subset), probe: probe, target: r}
	switch cond {
	case Equality:
		if kt == nil {
			kt = NewKeyTrans(probe, r)
		}
		ix.kt = kt
		// The dense layout gives O(1) array probes but costs O(|symbols|)
		// to build; a map keeps construction O(|subset|) when the subset is
		// tiny relative to the symbol space (near-unique keys).
		if nsyms := r.Symbols().Len(); DenseKeys(nsyms, len(subset)) {
			ix.ids, ix.starts = bucketize(r, nsyms, nil, subset)
		} else {
			ix.bucketMap = bucketMap(r, subset)
		}
	case Cross:
		ix.ids = int32s(subset)
	default:
		ix.ids, ix.bands = sortByBand(r.Bands(), subset)
	}
	return ix
}

// DenseKeys reports whether grouping rows rows by key symbol should use
// an array over the whole symbol space of nsyms symbols (a counting sort)
// rather than work proportional to the rows alone. Symbols are never
// reclaimed, so a long-lived relation can intern far more keys than it
// holds rows; past eight symbols per row the array would dominate. The
// equality Index's layout and core's key grouping both follow this rule.
func DenseKeys(nsyms, rows int) bool { return nsyms <= 64 || rows >= nsyms/8 }

// bucketize counting-sorts rows by target key symbol: rows in head order,
// then tail order, within each symbol's bucket. It returns the sorted ids
// and the nsyms+1 bucket offsets.
func bucketize(r *dataset.Relation, nsyms int, head []int32, tail []int) (ids, starts []int32) {
	starts = make([]int32, nsyms+1)
	for _, j := range head {
		starts[r.KeyID(int(j))+1]++
	}
	for _, j := range tail {
		starts[r.KeyID(j)+1]++
	}
	for s := 1; s <= nsyms; s++ {
		starts[s] += starts[s-1]
	}
	ids = make([]int32, len(head)+len(tail))
	next := slices.Clone(starts[:nsyms])
	for _, j := range head {
		k := r.KeyID(int(j))
		ids[next[k]] = j
		next[k]++
	}
	for _, j := range tail {
		k := r.KeyID(j)
		ids[next[k]] = int32(j)
		next[k]++
	}
	return ids, starts
}

// bucketMap groups rows by target key symbol into capped views of one
// array, rows of a key in their order in rows.
func bucketMap(r *dataset.Relation, rows []int) map[int32][]int32 {
	counts := make(map[int32]int)
	for _, j := range rows {
		counts[r.KeyID(j)]++
	}
	ids := make([]int32, len(rows))
	m := make(map[int32][]int32, len(counts))
	off := 0
	for k, c := range counts {
		m[k], off = ids[off:off:off+c], off+c
	}
	for _, j := range rows {
		k := r.KeyID(j)
		m[k] = append(m[k], int32(j))
	}
	return m
}

// int32s returns ids narrowed to int32.
func int32s(ids []int) []int32 {
	out := make([]int32, len(ids))
	for n, j := range ids {
		out[n] = int32(j)
	}
	return out
}

// sortByBand returns ids ordered by ascending band, rows with equal bands
// in their order in ids, and the bands in that order. Sorting on (band,
// input position) makes the order total, so an unstable sort yields
// exactly the stable one.
func sortByBand(bands []float64, ids []int) ([]int32, []float64) {
	type entry struct {
		band float64
		pos  int
	}
	entries := make([]entry, len(ids))
	for n, j := range ids {
		entries[n] = entry{bands[j], n}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.band, b.band); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	perm := make([]int32, len(entries))
	sorted := make([]float64, len(entries))
	for n, e := range entries {
		perm[n], sorted[n] = int32(ids[e.pos]), e.band
	}
	return perm, sorted
}

// KeyTrans maps a probe relation's key symbols onto a target relation's:
// one pass over the probe's symbol table at construction buys string-free
// equality probes for every index built over the pair afterwards. A
// KeyTrans is immutable and safe to share across indexes and goroutines.
type KeyTrans struct {
	// identity marks a shared symbol table (self-join): symbols translate
	// to themselves.
	identity bool
	// trans[s] is the target symbol for probe symbol s, -1 where the
	// target never interned the string.
	trans []int32
}

// NewKeyTrans builds the probe→target key-symbol translation. A nil probe
// or a shared symbol table yields the identity translation.
func NewKeyTrans(probe, target *dataset.Relation) *KeyTrans {
	if probe == nil || probe.Symbols() == target.Symbols() {
		return &KeyTrans{identity: true}
	}
	ps, ts := probe.Symbols(), target.Symbols()
	trans := make([]int32, ps.Len())
	for s := range trans {
		if id, ok := ts.Lookup(ps.String(int32(s))); ok {
			trans[s] = id
		} else {
			trans[s] = -1
		}
	}
	return &KeyTrans{trans: trans}
}

// NewFullIndex indexes every tuple of r in natural order, probed by probe.
func NewFullIndex(probe, r *dataset.Relation, cond Condition) *Index {
	subset := make([]int, r.Len())
	for i := range subset {
		subset[i] = i
	}
	return NewIndex(probe, r, subset, cond)
}

// Extend folds rows appended to the target relation since the index was
// built into the existing structures, in the order given: equality rows
// join the end of their key buckets (the bucket table growing to cover
// symbols interned by the batch), band rows are sorted among themselves
// and merged into the band permutation from the end — O(n + b log b) for
// a batch of b against an index of n, against the O(n log n) rebuild. The
// resulting index answers Partners with exactly the partner sets a rebuild
// over the grown relation would; within an equality bucket the batch rows
// probe after the pre-existing ones rather than in global probe-priority
// order, which affects probe order only, never membership.
//
// newIDs must be target rows that are not yet indexed, each listed once —
// the appended tail of the relation, in whatever probe-priority order the
// caller wants bucket tails to keep. Extend is a write: callers must
// exclude it from concurrent readers exactly as they would a mutation of
// the relation itself (the ingest path extends only residents it has
// taken out of circulation).
func (ix *Index) Extend(newIDs []int) {
	if len(newIDs) == 0 {
		return
	}
	ix.n += len(newIDs)
	switch ix.cond {
	case Equality:
		// The batch may have interned strings into either symbol table: a
		// new probe symbol is handled lazily by bucketForSym's fallback,
		// but a target symbol interned for a string the probe already knew
		// would leave a stale -1 in the translation and silently miss the
		// new partners. Rebuilding the translation (one pass over the probe
		// table) restores the invariant; the shared KeyTrans other indexes
		// hold is immutable, so this index gets its own.
		if ix.kt != nil && !ix.kt.identity {
			ix.kt = NewKeyTrans(ix.probe, ix.target)
		}
		if ix.bucketMap != nil {
			for _, j := range newIDs {
				k := ix.target.KeyID(j)
				ix.bucketMap[k] = append(ix.bucketMap[k], int32(j))
			}
			return
		}
		// The held ids are already grouped by key, so re-bucketing them
		// ahead of the batch keeps every old row before every new one.
		ix.ids, ix.starts = bucketize(ix.target, ix.target.Symbols().Len(), ix.ids, newIDs)
	case Cross:
		ix.ids = append(ix.ids, int32s(newIDs)...)
	default:
		tail, tailBands := sortByBand(ix.target.Bands(), newIDs)
		// Merge from the end, new rows placed after equal-band old rows:
		// together with the stable tail sort this reproduces the exact
		// permutation a stable rebuild sort over [old order, newIDs] would.
		perm := make([]int32, len(ix.ids)+len(tail))
		merged := make([]float64, len(perm))
		i, j := len(ix.ids)-1, len(tail)-1
		for k := len(perm) - 1; k >= 0; k-- {
			if j < 0 || (i >= 0 && ix.bands[i] > tailBands[j]) {
				perm[k], merged[k] = ix.ids[i], ix.bands[i]
				i--
			} else {
				perm[k], merged[k] = tail[j], tailBands[j]
				j--
			}
		}
		ix.ids, ix.bands = perm, merged
	}
}

// Retract removes target rows from the index after a batch delete on the
// target relation and renumbers the survivors to the post-delete IDs.
// removed must be the deleted rows' pre-delete IDs, sorted strictly
// ascending — the same slice handed to dataset.Relation.DeleteBatch. Every
// representation is filtered in place, preserving relative order, so probe
// priority inside equality buckets and the band permutation's stable order
// are exactly what a rebuild over the shrunken relation would produce
// (survivors' keys and bands are untouched by a delete). Symbols are never
// reclaimed, so the key translation stays valid as is. Like Extend, Retract
// is a write: exclude it from concurrent readers.
func (ix *Index) Retract(removed []int) {
	if len(removed) == 0 {
		return
	}
	renum := func(id int32) (int32, bool) {
		i := sort.SearchInts(removed, int(id))
		if i < len(removed) && removed[i] == int(id) {
			return 0, false
		}
		return id - int32(i), true
	}
	filter := func(list []int32) []int32 {
		w := 0
		for _, id := range list {
			if nid, ok := renum(id); ok {
				list[w] = nid
				w++
			}
		}
		ix.n -= len(list) - w
		return list[:w]
	}
	switch ix.cond {
	case Equality:
		if ix.bucketMap != nil {
			for k, b := range ix.bucketMap {
				if nb := filter(b); len(nb) > 0 {
					ix.bucketMap[k] = nb
				} else {
					delete(ix.bucketMap, k)
				}
			}
			return
		}
		// Compact the buckets in one pass: each bucket's survivors move
		// down to where the previous one ended.
		w := int32(0)
		for s := 0; s+1 < len(ix.starts); s++ {
			lo, hi := ix.starts[s], ix.starts[s+1]
			ix.starts[s] = w
			w += int32(len(filter(ix.ids[lo:hi])))
			copy(ix.ids[ix.starts[s]:w], ix.ids[lo:hi])
		}
		ix.starts[len(ix.starts)-1] = w
		ix.ids = ix.ids[:w]
	case Cross:
		ix.ids = filter(ix.ids)
	default:
		w := 0
		for i, id := range ix.ids {
			if nid, ok := renum(id); ok {
				ix.ids[w] = nid
				ix.bands[w] = ix.bands[i]
				w++
			}
		}
		ix.n = w
		ix.ids = ix.ids[:w]
		ix.bands = ix.bands[:w]
	}
}

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return ix.n }

// Partners returns the indexed tuples that join with tuple i of the probe
// relation r1 under the index condition, as a read-only view. r1 must be
// the probe relation the index was built with. Equality costs two array
// lookups; band conditions cost one binary search; Cross is free.
func (ix *Index) Partners(r1 *dataset.Relation, i int) []int32 {
	switch ix.cond {
	case Equality:
		return ix.bucketForSym(r1, r1.KeyID(i))
	case Cross:
		return ix.ids
	case BandLess: // v.band > u.band: suffix of the band-sorted permutation
		u := r1.Band(i)
		lo := sort.Search(len(ix.bands), func(i int) bool { return ix.bands[i] > u })
		return ix.ids[lo:]
	case BandLessEq: // v.band >= u.band
		u := r1.Band(i)
		lo := sort.Search(len(ix.bands), func(i int) bool { return ix.bands[i] >= u })
		return ix.ids[lo:]
	case BandGreater: // v.band < u.band: prefix of the permutation
		u := r1.Band(i)
		hi := sort.Search(len(ix.bands), func(i int) bool { return ix.bands[i] >= u })
		return ix.ids[:hi]
	case BandGreaterEq: // v.band <= u.band
		u := r1.Band(i)
		hi := sort.Search(len(ix.bands), func(i int) bool { return ix.bands[i] > u })
		return ix.ids[:hi]
	default:
		return nil
	}
}

// bucketForSym resolves a probe-side key symbol to its equality bucket.
// Symbols interned into the probe relation after the index was built (an
// appended tuple with a previously unseen key) fall back to one string
// lookup in the target's table; everything else is array indexing.
func (ix *Index) bucketForSym(r1 *dataset.Relation, sym int32) []int32 {
	if !ix.kt.identity {
		if int(sym) < len(ix.kt.trans) {
			sym = ix.kt.trans[sym]
		} else {
			id, ok := ix.target.Symbols().Lookup(r1.Symbols().String(sym))
			if !ok {
				return nil
			}
			sym = id
		}
		if sym < 0 {
			return nil
		}
	}
	if ix.bucketMap != nil {
		return ix.bucketMap[sym]
	}
	// Identity translation (shared table): a symbol at or beyond the
	// bucket range was interned after the build, so no indexed tuple
	// carries it.
	if int(sym) >= len(ix.starts)-1 {
		return nil
	}
	lo, hi := ix.starts[sym], ix.starts[sym+1]
	return ix.ids[lo:hi:hi]
}

// PartnersSym returns the equality bucket for a probe-side key symbol of
// probe relation r1, for probes that carry a key without a tuple (the
// accumulated out-key of a cascaded chain join). Only valid on Equality
// indexes.
func (ix *Index) PartnersSym(r1 *dataset.Relation, sym int32) []int32 {
	return ix.bucketForSym(r1, sym)
}

// ForEachPair calls fn for every join-compatible (i, j) with i drawn from
// left and j a partner of r1's tuple i, stopping early when fn returns
// true; it reports whether fn stopped the iteration. Total cost is
// O(|left| log n + matches) for band conditions and O(|left| + matches)
// for equality, versus the O(|left|·n) of a condition scan.
func (ix *Index) ForEachPair(r1 *dataset.Relation, left []int, fn func(i, j int) bool) bool {
	for _, i := range left {
		for _, j := range ix.Partners(r1, i) {
			if fn(i, int(j)) {
				return true
			}
		}
	}
	return false
}

// CountPairs returns the number of join-compatible pairs between left and
// the indexed subset without enumerating them: partner ranges are counted
// by their width, so the cost is O(|left| log n) even when the match count
// is quadratic.
func (ix *Index) CountPairs(r1 *dataset.Relation, left []int) int {
	n := 0
	for _, i := range left {
		n += len(ix.Partners(r1, i))
	}
	return n
}

// Materialize builds the joined pairs for left × index. All attribute
// vectors share one arena: a single []float64 allocation sized
// pairs × width, carved into per-pair views. A cell therefore costs O(1)
// allocations regardless of how many pairs it holds (the arena stays
// reachable while any of its pairs is).
func Materialize(r1, r2 *dataset.Relation, left []int, ix *Index, agg Aggregator) []Pair {
	n := ix.CountPairs(r1, left)
	if n == 0 {
		return nil
	}
	w := Width(r1, r2)
	arena := make([]float64, n*w)
	out := make([]Pair, 0, n)
	pos := 0
	ix.ForEachPair(r1, left, func(i, j int) bool {
		attrs := CombineAt(r1, r2, i, j, agg, arena[pos:pos:pos+w])
		out = append(out, Pair{Left: i, Right: j, Attrs: attrs[:w:w]})
		pos += w
		return false
	})
	return out
}
