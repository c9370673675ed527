package dom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want bool
	}{
		{"strictly better everywhere", []float64{1, 1}, []float64{2, 2}, true},
		{"better on one equal on other", []float64{1, 2}, []float64{2, 2}, true},
		{"equal vectors", []float64{1, 2}, []float64{1, 2}, false},
		{"incomparable", []float64{1, 3}, []float64{2, 2}, false},
		{"worse", []float64{3, 3}, []float64{1, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dominates(tt.a, tt.b); got != tt.want {
				t.Errorf("Dominates(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestKDominates(t *testing.T) {
	a := []float64{1, 1, 9, 9}
	b := []float64{2, 2, 2, 2}
	// a is better on 2 of 4 attributes.
	if !KDominates(a, b, 2) {
		t.Error("a should 2-dominate b")
	}
	if KDominates(a, b, 3) {
		t.Error("a should not 3-dominate b")
	}
	// Both can k-dominate each other when k <= d/2.
	if !KDominates(b, a, 2) {
		t.Error("b should 2-dominate a (cyclic k-dominance)")
	}
	// Equal vectors never k-dominate (no strict attribute).
	if KDominates(a, a, 1) {
		t.Error("a vector must not k-dominate itself")
	}
	// Full dominance is d-dominance.
	if !KDominates([]float64{1, 1}, []float64{1, 2}, 2) {
		t.Error("d-dominance should match full dominance")
	}
}

func TestKDomCompare(t *testing.T) {
	a := []float64{1, 1, 9, 9}
	b := []float64{2, 2, 2, 2}
	ab, ba := KDomCompare(a, b, 2)
	if !ab || !ba {
		t.Errorf("KDomCompare = (%v,%v), want (true,true)", ab, ba)
	}
	ab, ba = KDomCompare(a, b, 3)
	if ab || ba {
		t.Errorf("KDomCompare k=3 = (%v,%v), want (false,false)", ab, ba)
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]float64{1, 2}, []float64{1, 2}) {
		t.Error("identical vectors should be Equal")
	}
	if Equal([]float64{1, 2}, []float64{1, 3}) {
		t.Error("different vectors should not be Equal")
	}
}

// vec is a fixed-width attribute vector for testing/quick generation.
type vec [5]float64

func (v vec) slice() []float64 { return v[:] }

func TestPropertyDominanceTransitive(t *testing.T) {
	// Full dominance is transitive: a dom b && b dom c => a dom c.
	f := func(a, b, c vec) bool {
		if Dominates(a.slice(), b.slice()) && Dominates(b.slice(), c.slice()) {
			return Dominates(a.slice(), c.slice())
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDominanceAsymmetric(t *testing.T) {
	f := func(a, b vec) bool {
		if Dominates(a.slice(), b.slice()) {
			return !Dominates(b.slice(), a.slice())
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyKDominanceMonotoneInK(t *testing.T) {
	// Lemma 1 (contrapositive at the pair level): if a k-dominates b then a
	// j-dominates b for every j <= k.
	f := func(a, b vec) bool {
		for k := 5; k >= 1; k-- {
			if KDominates(a.slice(), b.slice(), k) && !KDominates(a.slice(), b.slice(), k-1+1) {
				return false
			}
			if KDominates(a.slice(), b.slice(), k) {
				for j := 1; j < k; j++ {
					if !KDominates(a.slice(), b.slice(), j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFullDominanceIsDDominance(t *testing.T) {
	f := func(a, b vec) bool {
		return Dominates(a.slice(), b.slice()) == KDominates(a.slice(), b.slice(), 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyKDomCompareConsistent(t *testing.T) {
	f := func(a, b vec, kRaw uint8) bool {
		k := int(kRaw)%5 + 1
		ab, ba := KDomCompare(a.slice(), b.slice(), k)
		return ab == KDominates(a.slice(), b.slice(), k) &&
			ba == KDominates(b.slice(), a.slice(), k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountsConsistent pins LeqLess to a direct count of each
// position, and the complement identities KDomCompare derives the reverse
// direction from: count(b<=a) = d-less and count(b<a) = d-leq.
func TestPropertyCountsConsistent(t *testing.T) {
	f := func(a, b vec) bool {
		var wantLeq, wantLess int
		for i := range a {
			if a[i] <= b[i] {
				wantLeq++
			}
			if a[i] < b[i] {
				wantLess++
			}
		}
		leq, less := LeqLess(a.slice(), b.slice())
		revLeq, revLess := LeqLess(b.slice(), a.slice())
		return leq == wantLeq && less == wantLess && revLeq == len(a)-less && revLess == len(a)-leq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkKDominates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const d = 8
	x := make([]float64, d)
	y := make([]float64, d)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KDominates(x, y, d-2)
	}
}
