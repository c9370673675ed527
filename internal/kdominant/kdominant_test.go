package kdominant

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

var algorithms = map[string]func([][]float64, int) []int{
	"Naive":         Naive,
	"TwoScan":       TwoScan,
	"SkylineVerify": SkylineVerify,
	"OneScan":       OneScan,
}

func TestKDominantSimple(t *testing.T) {
	// d=4, k=3. Point {2,2,2,2} 3-dominates {1,3,3,3} (leq on attrs 1,2,3,
	// strict there), and {1,3,3,3} does not 3-dominate back (leq only on
	// attr 0).
	points := [][]float64{
		{2, 2, 2, 2},
		{1, 3, 3, 3},
		{9, 9, 9, 9}, // fully dominated
	}
	want := []int{0}
	for name, fn := range algorithms {
		if got := fn(points, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("%s(k=3) = %v, want %v", name, got, want)
		}
	}
}

func TestKDominantEqualsFullSkylineAtKEqualsD(t *testing.T) {
	points := [][]float64{{1, 4}, {2, 3}, {3, 3}, {4, 1}, {5, 5}}
	want := []int{0, 1, 3}
	for name, fn := range algorithms {
		if got := fn(points, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s(k=d) = %v, want %v", name, got, want)
		}
	}
}

func TestKDominantCyclic(t *testing.T) {
	// Classic cyclic instance (d=3, k=2): a 2-dom b, b 2-dom c, c 2-dom a.
	// Every point is 2-dominated, so the 2-dominant skyline is empty.
	a := []float64{0, 2, 1}
	b := []float64{1, 0, 2}
	c := []float64{2, 1, 0}
	if !dom.KDominates(a, b, 2) || !dom.KDominates(b, c, 2) || !dom.KDominates(c, a, 2) {
		t.Fatal("test fixture is not cyclic as intended")
	}
	points := [][]float64{a, b, c}
	for name, fn := range algorithms {
		if got := fn(points, 2); len(got) != 0 {
			t.Errorf("%s on cyclic instance = %v, want empty", name, got)
		}
	}
}

func TestKDominantDuplicates(t *testing.T) {
	points := [][]float64{{1, 1, 1}, {1, 1, 1}}
	for name, fn := range algorithms {
		if got := fn(points, 2); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Errorf("%s on duplicates = %v, want [0 1]", name, got)
		}
	}
}

func TestKDominantEmptyAndSingle(t *testing.T) {
	for name, fn := range algorithms {
		if got := fn(nil, 2); len(got) != 0 {
			t.Errorf("%s(nil) = %v, want empty", name, got)
		}
		if got := fn([][]float64{{5, 5}}, 1); !reflect.DeepEqual(got, []int{0}) {
			t.Errorf("%s(single) = %v, want [0]", name, got)
		}
	}
}

func TestNaiveSubset(t *testing.T) {
	points := [][]float64{
		{1, 1, 1}, // would dominate everything, but excluded from subset
		{2, 2, 2},
		{3, 3, 3},
	}
	got := NaiveSubset(points, []int{1, 2}, 2)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("NaiveSubset = %v, want [1]", got)
	}
}

func TestTwoScanSubset(t *testing.T) {
	points := [][]float64{
		{1, 1, 1},
		{2, 2, 2},
		{3, 3, 3},
	}
	got := TwoScanSubset(points, []int{1, 2}, 2)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("TwoScanSubset = %v, want [1]", got)
	}
}

func randomPoints(rng *rand.Rand, n, d, domain int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, d)
		for j := range points[i] {
			points[i][j] = float64(rng.Intn(domain))
		}
	}
	return points
}

func TestAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(5)
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(d)
		points := randomPoints(rng, n, d, 5)
		naive := Naive(points, k)
		if tsa := TwoScan(points, k); !reflect.DeepEqual(tsa, naive) {
			t.Fatalf("trial %d (n=%d d=%d k=%d): TwoScan = %v, Naive = %v\npoints=%v",
				trial, n, d, k, tsa, naive, points)
		}
		if sv := SkylineVerify(points, k); !reflect.DeepEqual(sv, naive) {
			t.Fatalf("trial %d (n=%d d=%d k=%d): SkylineVerify = %v, Naive = %v\npoints=%v",
				trial, n, d, k, sv, naive, points)
		}
		if osa := OneScan(points, k); !reflect.DeepEqual(osa, naive) {
			t.Fatalf("trial %d (n=%d d=%d k=%d): OneScan = %v, Naive = %v\npoints=%v",
				trial, n, d, k, osa, naive, points)
		}
	}
}

func BenchmarkOneScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := randomPoints(rng, 2000, 7, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OneScan(points, 5)
	}
}

func BenchmarkSkylineVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := randomPoints(rng, 2000, 7, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SkylineVerify(points, 5)
	}
}

func TestSubsetVariantsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(4)
		n := 2 + rng.Intn(40)
		k := 1 + rng.Intn(d)
		points := randomPoints(rng, n, d, 4)
		var subset []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				subset = append(subset, i)
			}
		}
		naive := NaiveSubset(points, subset, k)
		tsa := TwoScanSubset(points, subset, k)
		if !reflect.DeepEqual(tsa, naive) {
			t.Fatalf("trial %d: TwoScanSubset = %v, NaiveSubset = %v", trial, tsa, naive)
		}
	}
}

// TestPropertyLemma1 checks Lemma 1 at the set level: the j-dominant
// skyline is a subset of the i-dominant skyline for i >= j (more attributes
// required to dominate => harder to be excluded).
func TestPropertyLemma1(t *testing.T) {
	f := func(raw [][4]uint8) bool {
		points := make([][]float64, len(raw))
		for i, r := range raw {
			points[i] = []float64{float64(r[0] % 8), float64(r[1] % 8), float64(r[2] % 8), float64(r[3] % 8)}
		}
		prev := map[int]bool{}
		for k := 1; k <= 4; k++ {
			cur := map[int]bool{}
			for _, i := range TwoScan(points, k) {
				cur[i] = true
			}
			if k > 1 {
				for i := range prev {
					if !cur[i] {
						return false
					}
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMembersUndominated verifies the defining property of the
// result set against the raw definition.
func TestPropertyMembersUndominated(t *testing.T) {
	f := func(raw [][3]uint8, kRaw uint8) bool {
		k := int(kRaw)%3 + 1
		points := make([][]float64, len(raw))
		for i, r := range raw {
			points[i] = []float64{float64(r[0] % 6), float64(r[1] % 6), float64(r[2] % 6)}
		}
		in := map[int]bool{}
		for _, i := range TwoScan(points, k) {
			in[i] = true
		}
		for i := range points {
			dominated := false
			for j := range points {
				if i != j && dom.KDominates(points[j], points[i], k) {
					dominated = true
					break
				}
			}
			if in[i] == dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTwoScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := randomPoints(rng, 2000, 7, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwoScan(points, 5)
	}
}

func BenchmarkNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := randomPoints(rng, 2000, 7, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Naive(points, 5)
	}
}
