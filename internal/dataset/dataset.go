// Package dataset defines the relation and tuple model used throughout the
// KSJQ implementation: relations carrying join keys, optional band
// attributes for non-equality joins, and skyline attribute vectors split
// into local and aggregate parts (Sec. 3 and Sec. 5.6 of the paper).
//
// Storage is columnar (struct of arrays): a relation keeps one flat
// row-major attrs block strided by D(), flat band and key columns, and a
// per-relation SymbolTable interning join-key strings into dense int32
// symbol IDs. The algorithms' dense numeric scans — categorization,
// verification, band-range probes — therefore touch contiguous float64
// memory with no per-row pointer chasing, and group lookups compare
// integers instead of re-hashing strings. Tuple survives as the row-shaped
// view and constructor value: New and Append accept tuples, Tuple(i)
// materializes one, and the public ksjq facade stays row-shaped while the
// engine underneath runs on columns (DESIGN.md §8).
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Tuple is one row of a base relation — the row-shaped value used to
// construct relations and to view single rows of the columnar storage.
//
// Attrs holds the skyline attributes: first the local attributes, then the
// aggregate ones (Relation.Local and Relation.Agg give the split). Lower
// values are preferred on every attribute.
type Tuple struct {
	// ID identifies the tuple within its relation. IDs equal the tuple's
	// row index, are assigned by the relation constructor, and are stable
	// across algorithm runs so results can be compared set-wise.
	ID int
	// Key is the equality-join attribute (the h attributes of Eq. 1-3,
	// collapsed to a single comparable key). For the flight example this is
	// the stop-over city.
	Key string
	// Key2 is the secondary equality-join key used when the relation sits
	// in the middle of a cascaded multi-relation join (Sec. 2.3): it joins
	// to the *next* relation's Key. Ignored by two-relation queries.
	Key2 string
	// Band is the attribute used by non-equality join conditions
	// (Sec. 6.6), e.g. an arrival or departure time. Ignored for equality
	// joins.
	Band float64
	// Attrs are the skyline attribute values.
	Attrs []float64
}

// Relation is a base relation: a named set of rows with a common schema,
// stored column-wise.
type Relation struct {
	// Name is used in error messages and CLI output.
	Name string
	// Local is the number of local skyline attributes (l in Sec. 5.6).
	Local int
	// Agg is the number of aggregate skyline attributes (a in Sec. 5.6).
	// Attrs(i)[Local:Local+Agg] are combined with the other relation's
	// aggregate attributes on join.
	Agg int

	// n is the row count; the columns below all have n rows.
	n int
	// attrs is the row-major skyline attribute block: row i occupies
	// attrs[i*D() : (i+1)*D()].
	attrs []float64
	// band is the band-attribute column.
	band []float64
	// keys and keys2 are the interned join-key columns; both index syms.
	keys  []int32
	keys2 []int32
	// syms interns the relation's join-key strings (Key and Key2 share it).
	syms *SymbolTable
	// gen is the mutation generation: every append and every delete that
	// changes a row bumps it, so state derived from the relation can tell
	// a changed relation from an unchanged one even at equal length.
	gen uint64
}

// Errors reported by relation validation.
var (
	ErrEmptyRelation = errors.New("dataset: relation has no tuples")
	ErrBadSchema     = errors.New("dataset: invalid schema")
	ErrTooManyRows   = errors.New("dataset: relation exceeds MaxRows")
)

// MaxRows is the most rows a relation holds: every row id fits in an
// int32, the width join.Index stores ids at. Append, AppendBatch and
// NewFromColumns reject growth past it.
const MaxRows = math.MaxInt32

// checkRows rejects growing a relation of n rows by add more past MaxRows.
func checkRows(name string, n, add int) error {
	if add > MaxRows-n {
		return fmt.Errorf("%w: %s: %d rows plus %d", ErrTooManyRows, name, n, add)
	}
	return nil
}

// checkTuple validates one incoming row against the schema: attribute
// width, finite skyline attributes, and a non-NaN band. NaN skyline
// attributes would make domination comparisons silently false, and ±Inf
// breaks the attribute-sum probe ordering (Inf + -Inf = NaN), so both are
// rejected everywhere tuples enter the system.
func checkTuple(t *Tuple, d int) error {
	if len(t.Attrs) != d {
		return fmt.Errorf("%w: tuple has %d attributes, schema requires %d", ErrBadSchema, len(t.Attrs), d)
	}
	for j, v := range t.Attrs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: attribute %d is %v, skyline attributes must be finite", ErrBadSchema, j, v)
		}
	}
	// A NaN band has no position in the band-sorted join index; `Matches`
	// comparisons would also silently exclude the tuple from every join.
	if math.IsNaN(t.Band) {
		return fmt.Errorf("%w: tuple has NaN band", ErrBadSchema)
	}
	return nil
}

// New creates a relation with the given schema from row-shaped tuples,
// assigning row IDs 0..len(tuples)-1 in order. It validates that every
// tuple matches the schema width local+agg and carries finite skyline
// attributes and a non-NaN band. The tuples' storage is copied into the
// relation's columns; the input slice is not retained or mutated.
// Construction is one AppendBatch over an empty relation, so the bulk
// ingest path and the constructor share one set of invariants.
func New(name string, local, agg int, tuples []Tuple) (*Relation, error) {
	if local < 0 || agg < 0 || local+agg == 0 {
		return nil, fmt.Errorf("%w: local=%d agg=%d", ErrBadSchema, local, agg)
	}
	r := &Relation{
		Name:  name,
		Local: local,
		Agg:   agg,
		syms:  NewSymbolTable(),
	}
	if _, err := r.AppendBatch(tuples); err != nil {
		return nil, err
	}
	return r, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// hand-written literals.
func MustNew(name string, local, agg int, tuples []Tuple) *Relation {
	r, err := New(name, local, agg, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Append validates t against the relation's schema, assigns it the next
// row ID, and appends it to the columns, returning the assigned ID. It is
// the one supported way to grow a relation after construction: the
// incremental maintainer and the query service both route inserts through
// it, so the invariants New enforces (attribute width, finite attributes,
// no NaN band) hold for the relation's whole life.
func (r *Relation) Append(t Tuple) (int, error) {
	if err := checkTuple(&t, r.D()); err != nil {
		return 0, fmt.Errorf("%w (relation %s)", err, r.Name)
	}
	if err := checkRows(r.Name, r.n, 1); err != nil {
		return 0, err
	}
	id := r.n
	r.attrs = append(r.attrs, t.Attrs...)
	r.band = append(r.band, t.Band)
	r.keys = append(r.keys, r.syms.Intern(t.Key))
	r.keys2 = append(r.keys2, r.syms.Intern(t.Key2))
	r.n++
	r.gen++
	return id, nil
}

// AppendBatch validates ts against the relation's schema and appends all
// of them in one pass, assigning consecutive row IDs; it returns the first
// assigned ID (the batch occupies [first, first+len(ts))). Appending is
// all-or-nothing: every tuple is validated before any column is touched,
// so a bad tuple mid-batch cannot leave the relation half-grown. Each
// column grows at most once for the whole batch, and runs of equal join
// keys are interned with one symbol-table lookup per run — the bulk-ingest
// door group-commit inserts, CSV loads and New itself go through.
// The tuples' storage is copied; the input slice is not retained or
// mutated.
func (r *Relation) AppendBatch(ts []Tuple) (int, error) {
	d := r.D()
	for i := range ts {
		if err := checkTuple(&ts[i], d); err != nil {
			return 0, fmt.Errorf("%w (tuple %d)", err, i)
		}
	}
	if err := checkRows(r.Name, r.n, len(ts)); err != nil {
		return 0, err
	}
	first := r.n
	r.attrs = slices.Grow(r.attrs, len(ts)*d)
	r.band = slices.Grow(r.band, len(ts))
	r.keys = slices.Grow(r.keys, len(ts))
	r.keys2 = slices.Grow(r.keys2, len(ts))
	// Run memo: batches arrive grouped by key often enough (CSV exports,
	// per-group generators) that remembering the last interned string of
	// each column skips the table lookup for every repeat. Comparing a
	// repeated string to its own previous occurrence is cheap (equal
	// lengths, usually shared backing), and a miss costs one comparison.
	var lastKey, lastKey2 string
	var lastSym, lastSym2 int32 = -1, -1
	for i := range ts {
		t := &ts[i]
		r.attrs = append(r.attrs, t.Attrs...)
		r.band = append(r.band, t.Band)
		if lastSym < 0 || t.Key != lastKey {
			lastKey, lastSym = t.Key, r.syms.Intern(t.Key)
		}
		r.keys = append(r.keys, lastSym)
		if lastSym2 < 0 || t.Key2 != lastKey2 {
			lastKey2, lastSym2 = t.Key2, r.syms.Intern(t.Key2)
		}
		r.keys2 = append(r.keys2, lastSym2)
	}
	r.n += len(ts)
	if len(ts) > 0 {
		r.gen++
	}
	return first, nil
}

// Delete removes row i, shifting higher rows down by one (their IDs shrink
// accordingly, matching slice semantics). Interned symbols are never
// reclaimed: a symbol ID stays valid for the life of the relation.
func (r *Relation) Delete(i int) error {
	return r.DeleteBatch([]int{i})
}

// DeleteBatch removes the rows with the given IDs in one pass. IDs refer to
// the relation's state before the call; survivors shift down to close the
// gaps, exactly as if the rows were deleted one by one from highest to
// lowest. Deleting is all-or-nothing: the whole batch is validated (bounds,
// no duplicates) before any column is touched, so a bad ID mid-batch cannot
// leave the relation half-compacted. Each surviving row moves at most once.
// The input slice is not retained or mutated. Interned symbols are never
// reclaimed: a symbol ID stays valid for the life of the relation.
func (r *Relation) DeleteBatch(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sorted := ids
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), ids...)
		sort.Ints(sorted)
	}
	for i, id := range sorted {
		if id < 0 || id >= r.n {
			return fmt.Errorf("dataset: delete index %d out of range [0,%d)", id, r.n)
		}
		if i > 0 && id == sorted[i-1] {
			return fmt.Errorf("dataset: duplicate delete index %d", id)
		}
	}
	d := r.D()
	w, next := 0, 0
	for i := 0; i < r.n; i++ {
		if next < len(sorted) && sorted[next] == i {
			next++
			continue
		}
		if w != i {
			copy(r.attrs[w*d:(w+1)*d], r.attrs[i*d:(i+1)*d])
			r.band[w] = r.band[i]
			r.keys[w] = r.keys[i]
			r.keys2[w] = r.keys2[i]
		}
		w++
	}
	r.n = w
	r.gen++
	r.attrs = r.attrs[:w*d]
	r.band = r.band[:w]
	r.keys = r.keys[:w]
	r.keys2 = r.keys2[:w]
	return nil
}

// Generation returns the relation's mutation generation: a counter that
// Append, AppendBatch, Delete and DeleteBatch bump once per call that
// changes rows, and nothing else moves. Two reads that return the same
// generation saw the same rows — a delete followed by an insert of equal
// size leaves the length where it was but not the generation.
func (r *Relation) Generation() uint64 { return r.gen }

// D returns the total number of skyline attributes (d = l + a).
func (r *Relation) D() int { return r.Local + r.Agg }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// Attrs returns row i's skyline attribute vector as a view into the
// attribute column. The view is capacity-clipped so appending to it cannot
// clobber the next row; callers must treat it as read-only.
func (r *Relation) Attrs(i int) []float64 {
	d := r.D()
	lo := i * d
	return r.attrs[lo : lo+d : lo+d]
}

// FlatAttrs returns the whole row-major attribute column (length
// Len()·D()), for hot loops that stride it directly. Read-only.
func (r *Relation) FlatAttrs() []float64 { return r.attrs }

// Band returns row i's band attribute.
func (r *Relation) Band(i int) float64 { return r.band[i] }

// Bands returns the band column (length Len()). Read-only.
func (r *Relation) Bands() []float64 { return r.band }

// Key returns row i's join key string.
func (r *Relation) Key(i int) string { return r.syms.String(r.keys[i]) }

// KeyID returns row i's interned join-key symbol. Symbols are comparable
// only within this relation's table (see Symbols).
func (r *Relation) KeyID(i int) int32 { return r.keys[i] }

// Key2 returns row i's secondary (cascade) join key string.
func (r *Relation) Key2(i int) string { return r.syms.String(r.keys2[i]) }

// Key2ID returns row i's interned secondary join-key symbol, in the same
// table as KeyID.
func (r *Relation) Key2ID(i int) int32 { return r.keys2[i] }

// Symbols returns the relation's symbol table. Join machinery uses it to
// build cross-relation key translations; callers must not intern into it.
func (r *Relation) Symbols() *SymbolTable { return r.syms }

// Tuple materializes row i as a row-shaped view. Attrs aliases the
// attribute column (no copy); callers that retain or mutate the vector
// must copy it first.
func (r *Relation) Tuple(i int) Tuple {
	return Tuple{
		ID:    i,
		Key:   r.Key(i),
		Key2:  r.Key2(i),
		Band:  r.band[i],
		Attrs: r.Attrs(i),
	}
}

// Rows materializes every row as a Tuple (attribute vectors are views, as
// in Tuple). A convenience for tests, tooling and the facade's row-shaped
// surface; hot paths read the columns directly.
func (r *Relation) Rows() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// Validate checks the relation invariants: non-empty, a sane schema,
// consistent column lengths, key symbols covered by the symbol table, and
// finite attribute/band values.
func (r *Relation) Validate() error {
	if r.n == 0 {
		return fmt.Errorf("%w: %s", ErrEmptyRelation, r.Name)
	}
	if r.Local < 0 || r.Agg < 0 || r.D() == 0 {
		return fmt.Errorf("%w: %s: local=%d agg=%d", ErrBadSchema, r.Name, r.Local, r.Agg)
	}
	if err := checkRows(r.Name, 0, r.n); err != nil {
		return err
	}
	if len(r.attrs) != r.n*r.D() || len(r.band) != r.n || len(r.keys) != r.n || len(r.keys2) != r.n {
		return fmt.Errorf("%w: %s: column lengths (attrs=%d band=%d keys=%d keys2=%d) inconsistent with %d rows of width %d",
			ErrBadSchema, r.Name, len(r.attrs), len(r.band), len(r.keys), len(r.keys2), r.n, r.D())
	}
	if r.syms == nil {
		return fmt.Errorf("%w: %s: nil symbol table", ErrBadSchema, r.Name)
	}
	nsyms := int32(r.syms.Len())
	for i := 0; i < r.n; i++ {
		if r.keys[i] < 0 || r.keys[i] >= nsyms || r.keys2[i] < 0 || r.keys2[i] >= nsyms {
			return fmt.Errorf("%w: %s: row %d has key symbol outside the table", ErrBadSchema, r.Name, i)
		}
		if math.IsNaN(r.band[i]) {
			return fmt.Errorf("%w: %s: tuple %d has NaN band", ErrBadSchema, r.Name, i)
		}
	}
	for j, v := range r.attrs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s: tuple %d attribute %d is %v, skyline attributes must be finite",
				ErrBadSchema, r.Name, j/r.D(), j%r.D(), v)
		}
	}
	return nil
}

// Keys returns the distinct join-key values in deterministic (sorted) order.
func (r *Relation) Keys() []string {
	seen := make([]bool, r.syms.Len())
	keys := make([]string, 0, r.syms.Len())
	for _, id := range r.keys {
		if !seen[id] {
			seen[id] = true
			keys = append(keys, r.syms.String(id))
		}
	}
	sort.Strings(keys)
	return keys
}

// GroupIndex maps each join-key value to the indices of the rows holding
// it, preserving row order within each group. It is a one-shot convenience
// for tests and tooling; hot paths should build a reusable join.Index
// instead.
func (r *Relation) GroupIndex() map[string][]int {
	idx := make(map[string][]int)
	for i, id := range r.keys {
		k := r.syms.String(id)
		idx[k] = append(idx[k], i)
	}
	return idx
}

// Clone returns a deep copy of the relation (columns and symbol table).
// Algorithms never mutate their inputs, but experiments reuse relations
// across runs and occasionally want an isolated copy.
func (r *Relation) Clone() *Relation {
	return &Relation{
		Name:  r.Name,
		Local: r.Local,
		Agg:   r.Agg,
		n:     r.n,
		attrs: append([]float64(nil), r.attrs...),
		band:  append([]float64(nil), r.band...),
		keys:  append([]int32(nil), r.keys...),
		keys2: append([]int32(nil), r.keys2...),
		syms:  r.syms.clone(),
		gen:   r.gen,
	}
}

// HasUVP reports whether the relation satisfies the unique value property
// (Def. 4) with respect to i attributes: no two tuples agree on any i-sized
// subset of skyline attributes. Equivalently, no pair of tuples agrees on i
// or more attribute positions.
func (r *Relation) HasUVP(i int) bool {
	if i <= 0 {
		return r.n <= 1
	}
	d := r.D()
	for a := 0; a < r.n; a++ {
		x := r.attrs[a*d : a*d+d]
		for b := a + 1; b < r.n; b++ {
			y := r.attrs[b*d : b*d+d]
			eq := 0
			for j, v := range x {
				if v == y[j] {
					eq++
				}
			}
			if eq >= i {
				return false
			}
		}
	}
	return true
}
