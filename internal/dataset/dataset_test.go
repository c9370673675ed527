package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func sample() *Relation {
	return MustNew("r", 2, 1, []Tuple{
		{Key: "A", Attrs: []float64{1, 2, 3}},
		{Key: "B", Attrs: []float64{4, 5, 6}},
		{Key: "A", Attrs: []float64{7, 8, 9}},
	})
}

func TestNewAssignsIDs(t *testing.T) {
	r := sample()
	for i := 0; i < r.Len(); i++ {
		if tup := r.Tuple(i); tup.ID != i {
			t.Errorf("tuple %d has ID %d", i, tup.ID)
		}
	}
	if r.D() != 3 {
		t.Errorf("D() = %d, want 3", r.D())
	}
	if r.Len() != 3 {
		t.Errorf("Len() = %d, want 3", r.Len())
	}
}

func TestColumnarAccessors(t *testing.T) {
	r := sample()
	if got := r.Attrs(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("Attrs(1) = %v, want [4 5 6]", got)
	}
	if r.Key(0) != "A" || r.Key(1) != "B" || r.Key(2) != "A" {
		t.Errorf("keys = %q %q %q, want A B A", r.Key(0), r.Key(1), r.Key(2))
	}
	// Equal keys intern to equal symbols, distinct keys to distinct ones.
	if r.KeyID(0) != r.KeyID(2) || r.KeyID(0) == r.KeyID(1) {
		t.Errorf("key symbols = %d %d %d, want id(A)==id(A)!=id(B)", r.KeyID(0), r.KeyID(1), r.KeyID(2))
	}
	if got := r.FlatAttrs(); len(got) != r.Len()*r.D() || got[3] != 4 {
		t.Errorf("FlatAttrs() = %v, want 9 row-major values", got)
	}
	// Attribute views are capacity-clipped: appending must not clobber the
	// next row.
	v := r.Attrs(0)
	_ = append(v, 999)
	if r.Attrs(1)[0] != 4 {
		t.Error("append through a row view clobbered the next row")
	}
	rows := r.Rows()
	if len(rows) != 3 || rows[2].Key != "A" || rows[2].Attrs[0] != 7 {
		t.Errorf("Rows() = %v", rows)
	}
}

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	a := st.Intern("alpha")
	b := st.Intern("beta")
	if a == b {
		t.Fatal("distinct strings interned to the same symbol")
	}
	if st.Intern("alpha") != a {
		t.Error("re-interning is not idempotent")
	}
	if id, ok := st.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := st.Lookup("gamma"); ok {
		t.Error("Lookup of an unknown string succeeded")
	}
	if st.String(a) != "alpha" || st.String(b) != "beta" {
		t.Errorf("String round trip: %q %q", st.String(a), st.String(b))
	}
	if st.String(-1) != "" || st.String(99) != "" {
		t.Error("out-of-range symbol should stringify to empty")
	}
	if st.Len() != 2 {
		t.Errorf("Len() = %d, want 2", st.Len())
	}
}

func TestNewRejectsBadSchema(t *testing.T) {
	if _, err := New("r", 0, 0, nil); !errors.Is(err, ErrBadSchema) {
		t.Errorf("zero-width schema: err = %v, want ErrBadSchema", err)
	}
	if _, err := New("r", -1, 2, nil); !errors.Is(err, ErrBadSchema) {
		t.Errorf("negative local: err = %v, want ErrBadSchema", err)
	}
	_, err := New("r", 2, 0, []Tuple{{Attrs: []float64{1}}})
	if !errors.Is(err, ErrBadSchema) {
		t.Errorf("width mismatch: err = %v, want ErrBadSchema", err)
	}
}

func TestAppend(t *testing.T) {
	r := sample()
	id, err := r.Append(Tuple{Key: "C", Attrs: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Errorf("Append assigned ID %d, want 3", id)
	}
	if r.Len() != 4 || r.Tuple(3).ID != 3 {
		t.Errorf("relation after Append: len=%d, last ID=%d", r.Len(), r.Tuple(r.Len()-1).ID)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate after Append: %v", err)
	}
	if _, err := r.Append(Tuple{Key: "C", Attrs: []float64{1}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("width mismatch: err = %v, want ErrBadSchema", err)
	}
	if _, err := r.Append(Tuple{Key: "C", Band: math.NaN(), Attrs: []float64{1, 1, 1}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("NaN band: err = %v, want ErrBadSchema", err)
	}
	if r.Len() != 4 {
		t.Errorf("rejected Append mutated the relation: len=%d", r.Len())
	}
	// Re-using a key re-uses its symbol.
	if r.KeyID(3) == r.KeyID(0) || r.KeyID(3) == r.KeyID(1) {
		t.Error("appended key C collided with an existing symbol")
	}
	id2, err := r.Append(Tuple{Key: "A", Attrs: []float64{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.KeyID(id2) != r.KeyID(0) {
		t.Error("appended key A did not re-use the interned symbol")
	}
}

func TestDelete(t *testing.T) {
	r := sample()
	if err := r.Delete(5); err == nil {
		t.Error("out-of-range delete succeeded")
	}
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() after delete = %d, want 2", r.Len())
	}
	if r.Key(1) != "A" || r.Attrs(1)[0] != 7 {
		t.Errorf("row 2 did not shift down: key=%q attrs=%v", r.Key(1), r.Attrs(1))
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate after Delete: %v", err)
	}
}

func TestNaNBandRejected(t *testing.T) {
	// A NaN band has no position in the band-sorted join index and is
	// silently unjoinable under Condition.Matches; both constructors and
	// Validate must reject it.
	if _, err := New("r", 1, 0, []Tuple{{Band: math.NaN(), Attrs: []float64{1}}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("New with NaN band: err = %v, want ErrBadSchema", err)
	}
	r := sample()
	r.band[1] = math.NaN()
	if err := r.Validate(); !errors.Is(err, ErrBadSchema) {
		t.Errorf("Validate with NaN band: err = %v, want ErrBadSchema", err)
	}
	if _, err := ReadCSV(strings.NewReader("key,band,a0\nA,NaN,1\n"), ReadOptions{Name: "r", Local: 1, HasBand: true}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("ReadCSV with NaN band: err = %v, want ErrBadSchema", err)
	}
}

func TestNonFiniteAttrsRejected(t *testing.T) {
	// NaN skyline attributes make every domination comparison silently
	// false; ±Inf breaks the attribute-sum probe ordering. Every entry
	// point — constructor, Append, CSV load, Validate — must reject them.
	for name, bad := range map[string]float64{
		"NaN":  math.NaN(),
		"+Inf": math.Inf(1),
		"-Inf": math.Inf(-1),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := New("r", 2, 0, []Tuple{{Attrs: []float64{1, bad}}}); !errors.Is(err, ErrBadSchema) {
				t.Errorf("New: err = %v, want ErrBadSchema", err)
			}
			r := MustNew("r", 2, 0, []Tuple{{Attrs: []float64{1, 2}}})
			if _, err := r.Append(Tuple{Attrs: []float64{bad, 1}}); !errors.Is(err, ErrBadSchema) {
				t.Errorf("Append: err = %v, want ErrBadSchema", err)
			}
			if r.Len() != 1 {
				t.Errorf("rejected Append mutated the relation: len=%d", r.Len())
			}
			r.attrs[0] = bad
			if err := r.Validate(); !errors.Is(err, ErrBadSchema) {
				t.Errorf("Validate: err = %v, want ErrBadSchema", err)
			}
		})
	}
	if _, err := ReadCSV(strings.NewReader("key,a0\nA,NaN\n"), ReadOptions{Name: "r", Local: 1}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("ReadCSV with NaN attribute: err = %v, want ErrBadSchema", err)
	}
	if _, err := ReadCSV(strings.NewReader("key,a0\nA,+Inf\n"), ReadOptions{Name: "r", Local: 1}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("ReadCSV with Inf attribute: err = %v, want ErrBadSchema", err)
	}
}

func TestValidate(t *testing.T) {
	r := sample()
	if err := r.Validate(); err != nil {
		t.Errorf("valid relation failed validation: %v", err)
	}
	empty := &Relation{Name: "e", Local: 1, syms: NewSymbolTable()}
	if err := empty.Validate(); !errors.Is(err, ErrEmptyRelation) {
		t.Errorf("empty relation: err = %v, want ErrEmptyRelation", err)
	}
	bad := sample()
	bad.attrs = bad.attrs[:len(bad.attrs)-1] // torn attribute column
	if err := bad.Validate(); !errors.Is(err, ErrBadSchema) {
		t.Errorf("torn column: err = %v, want ErrBadSchema", err)
	}
	badSym := sample()
	badSym.keys[2] = 99 // symbol outside the table
	if err := badSym.Validate(); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad key symbol: err = %v, want ErrBadSchema", err)
	}
}

func TestKeysAndGroupIndex(t *testing.T) {
	r := sample()
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != "A" || keys[1] != "B" {
		t.Errorf("Keys() = %v, want [A B]", keys)
	}
	idx := r.GroupIndex()
	if got := idx["A"]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("GroupIndex()[A] = %v, want [0 2]", got)
	}
	if got := idx["B"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("GroupIndex()[B] = %v, want [1]", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.Attrs(0)[0] = 999
	if r.Attrs(0)[0] == 999 {
		t.Error("Clone shares attribute storage with original")
	}
	if _, err := c.Append(Tuple{Key: "Z", Attrs: []float64{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Error("Append to clone grew the original")
	}
	if _, ok := r.Symbols().Lookup("Z"); ok {
		t.Error("Clone shares the symbol table with original")
	}
}

func TestHasUVP(t *testing.T) {
	r := MustNew("r", 3, 0, []Tuple{
		{Attrs: []float64{1, 2, 3}},
		{Attrs: []float64{1, 5, 6}}, // shares 1 attr with tuple 0
	})
	if !r.HasUVP(2) {
		t.Error("relation should have UVP wrt 2")
	}
	if r.HasUVP(1) {
		t.Error("relation shares a value on one attribute, UVP wrt 1 must fail")
	}
	dup := MustNew("r", 3, 0, []Tuple{
		{Attrs: []float64{1, 2, 3}},
		{Attrs: []float64{1, 2, 6}},
	})
	if dup.HasUVP(2) {
		t.Error("two tuples agree on 2 attributes, UVP wrt 2 must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r, false); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, ReadOptions{Name: "r", Local: 2, Agg: 1})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != r.Len() || got.D() != r.D() {
		t.Fatalf("round trip changed shape: got %dx%d, want %dx%d", got.Len(), got.D(), r.Len(), r.D())
	}
	for i := 0; i < r.Len(); i++ {
		if got.Key(i) != r.Key(i) {
			t.Errorf("tuple %d key = %q, want %q", i, got.Key(i), r.Key(i))
		}
		for j, v := range r.Attrs(i) {
			if got.Attrs(i)[j] != v {
				t.Errorf("tuple %d attr %d = %v, want %v", i, j, got.Attrs(i)[j], v)
			}
		}
	}
}

func TestCSVRoundTripWithBand(t *testing.T) {
	r := MustNew("r", 1, 0, []Tuple{
		{Key: "X", Band: 10.5, Attrs: []float64{1}},
		{Key: "Y", Band: -3, Attrs: []float64{2}},
	})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r, true); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, ReadOptions{Name: "r", Local: 1, HasBand: true})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Band(0) != 10.5 || got.Band(1) != -3 {
		t.Errorf("band values lost: %v, %v", got.Band(0), got.Band(1))
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		opts ReadOptions
	}{
		{"empty input", "", ReadOptions{Local: 1}},
		{"header width mismatch", "key,a0,a1\n", ReadOptions{Local: 1}},
		{"row width mismatch", "key,a0\nA,1,2\n", ReadOptions{Local: 1}},
		{"non-numeric attribute", "key,a0\nA,abc\n", ReadOptions{Local: 1}},
		{"non-numeric band", "key,band,a0\nA,xx,1\n", ReadOptions{Local: 1, HasBand: true}},
		{"no data rows", "key,a0\n", ReadOptions{Local: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in), tt.opts); err == nil {
				t.Error("expected an error, got nil")
			}
		})
	}
}

// TestGeneration pins the mutation generation: every call that changes
// rows bumps it once, a rejected or empty one does not, and a delete plus
// an insert of equal size moves it although the length comes back.
func TestGeneration(t *testing.T) {
	r := sample()
	g := r.Generation()
	step := func(label string, f func() error, bumps bool) {
		t.Helper()
		before := r.Generation()
		err := f()
		if moved := r.Generation() != before; moved != bumps {
			t.Fatalf("%s (err %v): generation %d -> %d, want a bump: %v", label, err, before, r.Generation(), bumps)
		}
	}
	n := r.Len()
	step("Delete", func() error { return r.Delete(0) }, true)
	step("Append", func() error { _, err := r.Append(Tuple{Key: "A", Attrs: []float64{1, 2, 3}}); return err }, true)
	if r.Len() != n || r.Generation() != g+2 {
		t.Fatalf("after delete+append: len %d (want %d), generation %d (want %d)", r.Len(), n, r.Generation(), g+2)
	}
	step("AppendBatch", func() error {
		_, err := r.AppendBatch([]Tuple{{Key: "B", Attrs: []float64{1, 2, 3}}, {Key: "C", Attrs: []float64{3, 4, 5}}})
		return err
	}, true)
	step("DeleteBatch", func() error { return r.DeleteBatch([]int{0, 2}) }, true)
	step("empty AppendBatch", func() error { _, err := r.AppendBatch(nil); return err }, false)
	step("empty DeleteBatch", func() error { return r.DeleteBatch(nil) }, false)
	step("rejected Append", func() error { _, err := r.Append(Tuple{Attrs: []float64{1}}); return err }, false)
	step("rejected DeleteBatch", func() error { return r.DeleteBatch([]int{99}) }, false)
}

// TestMaxRows pins the row-count limit: growth that would take a relation
// past MaxRows is rejected before any column is touched. The relation's
// count is set directly; its columns stay empty.
func TestMaxRows(t *testing.T) {
	full := &Relation{Name: "full", Local: 1, n: MaxRows, syms: NewSymbolTable()}
	if _, err := full.Append(Tuple{Key: "A", Attrs: []float64{1}}); !errors.Is(err, ErrTooManyRows) {
		t.Errorf("Append at MaxRows: err = %v, want ErrTooManyRows", err)
	}
	almost := &Relation{Name: "almost", Local: 1, n: MaxRows - 1, syms: NewSymbolTable()}
	two := []Tuple{{Key: "A", Attrs: []float64{1}}, {Key: "B", Attrs: []float64{2}}}
	if _, err := almost.AppendBatch(two); !errors.Is(err, ErrTooManyRows) {
		t.Errorf("AppendBatch past MaxRows: err = %v, want ErrTooManyRows", err)
	}
	if almost.n != MaxRows-1 || len(almost.attrs) != 0 || almost.gen != 0 {
		t.Errorf("a rejected batch changed the relation: n=%d attrs=%d gen=%d", almost.n, len(almost.attrs), almost.gen)
	}
	over := &Relation{Name: "over", Local: 1, n: MaxRows + 1, syms: NewSymbolTable()}
	if err := over.Validate(); !errors.Is(err, ErrTooManyRows) {
		t.Errorf("Validate past MaxRows: err = %v, want ErrTooManyRows", err)
	}
}
