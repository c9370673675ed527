package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
)

var allConditions = []Condition{Equality, Cross, BandLess, BandLessEq, BandGreater, BandGreaterEq}

func randIndexedRelation(rng *rand.Rand, name string, n int) *dataset.Relation {
	tuples := make([]dataset.Tuple, n)
	for i := range tuples {
		tuples[i] = dataset.Tuple{
			Key:  string(rune('A' + rng.Intn(4))),
			Band: float64(rng.Intn(10)),
			Attrs: []float64{
				float64(rng.Intn(5)),
				float64(rng.Intn(5)),
				float64(rng.Intn(100)), // aggregate
			},
		}
	}
	return dataset.MustNew(name, 2, 1, tuples)
}

func pairSet(pairs []Pair) map[[2]int][]float64 {
	m := make(map[[2]int][]float64, len(pairs))
	for _, p := range pairs {
		m[[2]int{p.Left, p.Right}] = p.Attrs
	}
	return m
}

// TestPropertyIndexedPairsMatchScanOracle: for all six conditions and
// random relations, the indexed Pairs/CountPairs agree exactly — pair sets
// and combined attribute vectors — with the retained nested-scan oracle.
func TestPropertyIndexedPairsMatchScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		r1 := randIndexedRelation(rng, "r1", 1+rng.Intn(25))
		r2 := randIndexedRelation(rng, "r2", 1+rng.Intn(25))
		for _, cond := range allConditions {
			spec := Spec{Cond: cond, Agg: Sum}
			got, err := Pairs(r1, r2, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ScanPairs(r1, r2, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d cond %v: indexed %d pairs, oracle %d", trial, cond, len(got), len(want))
			}
			gotSet, wantSet := pairSet(got), pairSet(want)
			for key, attrs := range wantSet {
				ga, ok := gotSet[key]
				if !ok {
					t.Fatalf("trial %d cond %v: indexed join missing pair %v", trial, cond, key)
				}
				if !reflect.DeepEqual(ga, attrs) {
					t.Fatalf("trial %d cond %v: pair %v attrs = %v, oracle %v", trial, cond, key, ga, attrs)
				}
			}
			n, err := CountPairs(r1, r2, spec)
			if err != nil {
				t.Fatal(err)
			}
			sn, err := ScanCountPairs(r1, r2, spec)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) || sn != len(want) {
				t.Fatalf("trial %d cond %v: CountPairs=%d ScanCountPairs=%d, want %d", trial, cond, n, sn, len(want))
			}
		}
	}
}

// TestPropertyIndexSubsetPartners: an index over a random subset
// enumerates, for every probe tuple, exactly the subset members satisfying
// the condition, in O(log n) located ranges.
func TestPropertyIndexSubsetPartners(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		r1 := randIndexedRelation(rng, "r1", 1+rng.Intn(20))
		r2 := randIndexedRelation(rng, "r2", 1+rng.Intn(20))
		var subset []int
		for j := 0; j < r2.Len(); j++ {
			if rng.Intn(2) == 0 {
				subset = append(subset, j)
			}
		}
		for _, cond := range allConditions {
			ix := NewIndex(r1, r2, subset, cond)
			if ix.Len() != len(subset) {
				t.Fatalf("trial %d cond %v: Len=%d, want %d", trial, cond, ix.Len(), len(subset))
			}
			for i := 0; i < r1.Len(); i++ {
				u := r1.Tuple(i)
				var want []int
				for _, j := range subset {
					v := r2.Tuple(j)
					if cond.Matches(&u, &v) {
						want = append(want, j)
					}
				}
				var got []int
				for _, j := range ix.Partners(r1, i) {
					got = append(got, int(j))
				}
				sort.Ints(got)
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cond %v probe %d: partners %v, want %v", trial, cond, i, got, want)
				}
			}
		}
	}
}

// TestPropertyForEachPairMatchesOracle: ForEachPair over random left lists
// and right subsets visits exactly the oracle pair set, and early exit
// stops enumeration.
func TestPropertyForEachPairMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		r1 := randIndexedRelation(rng, "r1", 1+rng.Intn(20))
		r2 := randIndexedRelation(rng, "r2", 1+rng.Intn(20))
		var left, right []int
		for i := 0; i < r1.Len(); i++ {
			if rng.Intn(2) == 0 {
				left = append(left, i)
			}
		}
		for j := 0; j < r2.Len(); j++ {
			if rng.Intn(2) == 0 {
				right = append(right, j)
			}
		}
		for _, cond := range allConditions {
			ix := NewIndex(r1, r2, right, cond)
			got := map[[2]int]bool{}
			ix.ForEachPair(r1, left, func(i, j int) bool {
				if got[[2]int{i, j}] {
					t.Fatalf("trial %d cond %v: pair (%d,%d) visited twice", trial, cond, i, j)
				}
				got[[2]int{i, j}] = true
				return false
			})
			want := map[[2]int]bool{}
			for _, i := range left {
				u := r1.Tuple(i)
				for _, j := range right {
					v := r2.Tuple(j)
					if cond.Matches(&u, &v) {
						want[[2]int{i, j}] = true
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cond %v: ForEachPair visited %v, want %v", trial, cond, got, want)
			}
			if ix.CountPairs(r1, left) != len(want) {
				t.Fatalf("trial %d cond %v: CountPairs=%d, want %d", trial, cond, ix.CountPairs(r1, left), len(want))
			}
			if len(want) > 0 {
				visited := 0
				stopped := ix.ForEachPair(r1, left, func(i, j int) bool {
					visited++
					return true
				})
				if !stopped || visited != 1 {
					t.Fatalf("trial %d cond %v: early exit visited %d pairs (stopped=%v)", trial, cond, visited, stopped)
				}
			}
		}
	}
}

// TestMaterializeArena: one Materialize call backs every attribute vector
// with a single arena and the vectors match per-pair Combine output.
func TestMaterializeArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r1 := randIndexedRelation(rng, "r1", 12)
	r2 := randIndexedRelation(rng, "r2", 15)
	for _, cond := range allConditions {
		left := make([]int, r1.Len())
		for i := range left {
			left[i] = i
		}
		pairs := Materialize(r1, r2, left, NewFullIndex(r1, r2, cond), Sum)
		w := Width(r1, r2)
		for n, p := range pairs {
			if len(p.Attrs) != w || cap(p.Attrs) != w {
				t.Fatalf("cond %v pair %d: len/cap = %d/%d, want %d/%d", cond, n, len(p.Attrs), cap(p.Attrs), w, w)
			}
			u, v := r1.Tuple(p.Left), r2.Tuple(p.Right)
			want := Combine(r1, r2, &u, &v, Sum, nil)
			if !reflect.DeepEqual(p.Attrs, want) {
				t.Fatalf("cond %v pair %d: attrs %v, want %v", cond, n, p.Attrs, want)
			}
		}
		// Vectors must not alias each other.
		seen := map[string]bool{}
		for n := range pairs {
			p := fmt.Sprintf("%p", pairs[n].Attrs)
			if seen[p] {
				t.Fatalf("cond %v: two pairs alias the same arena cell %s", cond, p)
			}
			seen[p] = true
		}
	}
}

// TestEmptyIndex: nil and empty subsets index nothing — a regression guard
// for the empty-cell case (an empty SN list must never mean "everything").
func TestEmptyIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r1 := randIndexedRelation(rng, "r1", 5)
	r2 := randIndexedRelation(rng, "r2", 5)
	for _, cond := range allConditions {
		for _, subset := range [][]int{nil, {}} {
			ix := NewIndex(r1, r2, subset, cond)
			if ix.Len() != 0 {
				t.Fatalf("cond %v: empty subset has Len %d", cond, ix.Len())
			}
			if n := ix.CountPairs(r1, []int{0, 1, 2}); n != 0 {
				t.Fatalf("cond %v: empty index counted %d pairs", cond, n)
			}
		}
	}
}

// TestPartnersAfterProbeAppend: a probe tuple appended (with a previously
// unseen key symbol) after the index was built must still resolve its
// equality bucket — the symbol translation falls back to one string lookup
// for symbols beyond the table size captured at build time.
func TestPartnersAfterProbeAppend(t *testing.T) {
	r1 := dataset.MustNew("r1", 1, 0, []dataset.Tuple{
		{Key: "A", Attrs: []float64{1}},
	})
	r2 := dataset.MustNew("r2", 1, 0, []dataset.Tuple{
		{Key: "A", Attrs: []float64{1}},
		{Key: "B", Attrs: []float64{2}},
		{Key: "B", Attrs: []float64{3}},
	})
	ix := NewFullIndex(r1, r2, Equality)
	// "B" exists in r2 but was unknown to r1 when the index (and its
	// translation table) was built.
	id, err := r1.Append(dataset.Tuple{Key: "B", Attrs: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Partners(r1, id)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Partners for late-appended key B = %v, want [1 2]", got)
	}
	// A key unknown to both sides must stay partnerless.
	id, err = r1.Append(dataset.Tuple{Key: "C", Attrs: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Partners(r1, id); len(got) != 0 {
		t.Fatalf("Partners for unknown key C = %v, want none", got)
	}
	// Self-join identity path: a fresh symbol appended to the indexed
	// relation itself has no bucket (no indexed tuple carries it).
	selfIx := NewFullIndex(r2, r2, Equality)
	id, err = r2.Append(dataset.Tuple{Key: "Z", Attrs: []float64{6}})
	if err != nil {
		t.Fatal(err)
	}
	if got := selfIx.Partners(r2, id); len(got) != 0 {
		t.Fatalf("identity Partners for late key Z = %v, want none", got)
	}
}

// TestSortByBandMatchesSliceStable pins the band permutation to the
// reflective stable sort it replaced, on subsets where most bands tie.
func TestSortByBandMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		r := randIndexedRelation(rng, "r", 1+rng.Intn(60))
		ids := rng.Perm(r.Len())[:rng.Intn(r.Len()+1)]
		want := append([]int(nil), ids...)
		bands := r.Bands()
		sort.SliceStable(want, func(a, b int) bool { return bands[want[a]] < bands[want[b]] })
		perm, gotBands := sortByBand(bands, ids)
		got := make([]int, len(perm))
		for n, j := range perm {
			got[n] = int(j)
		}
		if !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("trial %d: sortByBand(%v) = %v, sort.SliceStable %v", trial, ids, got, want)
		}
		for n, j := range got {
			if gotBands[n] != bands[j] {
				t.Fatalf("trial %d: band %d of the permutation is %v, row %d has %v", trial, n, gotBands[n], j, bands[j])
			}
		}
	}
}

// TestEqualityIndexLayout pins the counting-sorted equality layout: each
// bucket holds its key's rows in subset order, is capped at its length
// (so Extend's appends never write into a neighbour), and Len counts the
// subset, also after Extend and Retract, in both bucket layouts.
func TestEqualityIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, c := range []struct{ keys, subset int }{{4, 40}, {400, 15}} {
		keys := c.keys
		tuples := make([]dataset.Tuple, 300)
		for i := range tuples {
			tuples[i] = dataset.Tuple{Key: fmt.Sprintf("k%d", rng.Intn(keys)), Attrs: []float64{1}}
		}
		r := dataset.MustNew("r", 1, 0, tuples)
		ids := rng.Perm(r.Len())[:c.subset]
		ix := NewIndex(r, r, ids, Equality)
		if mapped := ix.bucketMap != nil; mapped != (keys > 100) {
			t.Fatalf("keys %d: bucket map used %v", keys, mapped)
		}
		if ix.Len() != len(ids) {
			t.Fatalf("keys %d: Len %d, want %d", keys, ix.Len(), len(ids))
		}
		for i := 0; i < r.Len(); i++ {
			var want []int32
			for _, j := range ids {
				if r.KeyID(j) == r.KeyID(i) {
					want = append(want, int32(j))
				}
			}
			got := ix.Partners(r, i)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) || cap(got) != len(got) {
				t.Fatalf("keys %d: partners of row %d = %v (cap %d), want %v", keys, i, got, cap(got), want)
			}
		}
		first, err := r.AppendBatch([]dataset.Tuple{{Key: r.Key(ids[0]), Attrs: []float64{1}}, {Key: r.Key(ids[1]), Attrs: []float64{1}}})
		if err != nil {
			t.Fatal(err)
		}
		ix.Extend([]int{first, first + 1})
		if ix.Len() != len(ids)+2 {
			t.Fatalf("keys %d: Len after Extend %d, want %d", keys, ix.Len(), len(ids)+2)
		}
		// Row 0 may or may not be indexed: Len counts only indexed rows.
		indexed := 0
		for _, j := range ids {
			if j == 0 || j == 1 {
				indexed++
			}
		}
		if err := r.DeleteBatch([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		ix.Retract([]int{0, 1})
		if want := len(ids) + 2 - indexed; ix.Len() != want {
			t.Fatalf("keys %d: Len after Retract %d, want %d", keys, ix.Len(), want)
		}
	}
}
