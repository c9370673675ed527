// Package kdominant implements k-dominant skyline computation (Chan et al.,
// SIGMOD'06), the substrate the paper's KSJQ algorithms build on: the naive
// O(n²) method, the Two-Scan Algorithm (TSA), and a skyline-verifier method
// that exploits the fact that any k-dominated point is k-dominated by a
// full-skyline point.
//
// k-dominance is neither transitive nor acyclic (Sec. 2.2 of the KSJQ
// paper), so window-based skyline algorithms cannot be reused directly; the
// two optimized methods here restore correctness with a verification pass.
//
// All functions return indices into the input slice, in ascending order.
package kdominant

import (
	bits64 "math/bits"
	"sort"

	"repro/internal/dom"
	"repro/internal/skyline"
)

// Naive returns the k-dominant skyline by comparing every pair of points.
// It is the correctness oracle for the optimized algorithms.
func Naive(points [][]float64, k int) []int {
	all := identity(len(points))
	return NaiveSubset(points, all, k)
}

// NaiveSubset is Naive restricted to the points whose indices appear in
// subset. Only subset members may act as dominators, matching the paper's
// per-group categorization (Defs. 1-3).
func NaiveSubset(points [][]float64, subset []int, k int) []int {
	var result []int
	for _, i := range subset {
		dominated := false
		for _, j := range subset {
			if i != j && dom.KDominates(points[j], points[i], k) {
				dominated = true
				break
			}
		}
		if !dominated {
			result = append(result, i)
		}
	}
	return result
}

// TwoScan returns the k-dominant skyline with the Two-Scan Algorithm.
//
// Scan 1 maintains a candidate window: an incoming point is dropped if a
// window point k-dominates it and evicts window points it k-dominates.
// Because k-dominance is cyclic, a point evicted (or never admitted) in
// scan 1 may still k-dominate a surviving candidate, so scan 2 re-verifies
// every candidate against all non-candidate points.
func TwoScan(points [][]float64, k int) []int {
	return TwoScanSubset(points, identity(len(points)), k)
}

// TwoScanSubset is TwoScan restricted to a subset of point indices.
//
// Both scans run over a flat copy of the window's attribute vectors (one
// d-strided []float64), so the hot sweeps are contiguous passes instead of
// per-point pointer chases, and window eviction is in-place compaction.
// Scan 2 tracks surviving candidates in a bitset and skips dead candidates
// a word (64) at a time.
func TwoScanSubset(points [][]float64, subset []int, k int) []int {
	if len(subset) == 0 {
		return nil
	}
	d := len(points[subset[0]])

	// Scan 1: candidate filtering. winIDs[w] is the window's w-th point;
	// its attributes live in winAttrs[w*d : (w+1)*d].
	winIDs := make([]int, 0, 16)
	winAttrs := make([]float64, 0, 16*d)
	for _, i := range subset {
		p := points[i]
		dominated := false
		nw := len(winIDs)
		keep := 0
		for w := 0; w < nw; w++ {
			wa := winAttrs[w*d : w*d+d]
			leq, less := dom.LeqLess(wa, p)
			if leq >= k && less > 0 { // w k-dominates p
				dominated = true
				// w stays even if p also k-dominates w: p is out, so w's
				// fate is decided by scan 2 like every other candidate —
				// and so does everything after w, uncompared.
				for ; w < nw; w++ {
					if keep != w {
						winIDs[keep] = winIDs[w]
						copy(winAttrs[keep*d:keep*d+d], winAttrs[w*d:w*d+d])
					}
					keep++
				}
				break
			}
			if d-less >= k && d-leq > 0 { // p k-dominates w: evict w
				continue
			}
			if keep != w {
				winIDs[keep] = winIDs[w]
				copy(winAttrs[keep*d:keep*d+d], winAttrs[w*d:w*d+d])
			}
			keep++
		}
		winIDs = winIDs[:keep]
		winAttrs = winAttrs[:keep*d]
		if !dominated {
			winIDs = append(winIDs, i)
			winAttrs = append(winAttrs, p...)
		}
	}

	// Scan 2: verify candidates against non-candidates, non-candidate-outer
	// so window membership is decided once per point instead of once per
	// (candidate, point) pair. The visited (candidate, point) comparisons
	// are exactly the candidate-outer loop's — a candidate stops being
	// scanned past its first dominator either way — so the surviving set is
	// identical. Membership stays a binary search over a sorted copy of the
	// window: cost bounded by the window, never by the full point array
	// (this runs once per join group). live is a bitset over window
	// positions: dead candidates cost one word load per 64, and the sweep
	// touches only the flat window copy.
	sorted := append([]int(nil), winIDs...)
	sort.Ints(sorted)
	live := make([]uint64, (len(winIDs)+63)/64)
	for w := range live {
		live[w] = ^uint64(0)
	}
	if rem := len(winIDs) % 64; rem != 0 {
		live[len(live)-1] = uint64(1)<<rem - 1
	}
	alive := len(winIDs)
	for _, j := range subset {
		if p := sort.SearchInts(sorted, j); p < len(sorted) && sorted[p] == j {
			continue // candidates are verified against non-candidates only
		}
		pj := points[j]
		for w, bits := range live {
			for bits != 0 {
				t := bits & (-bits)
				bits ^= t
				wi := w*64 + bits64.TrailingZeros64(t)
				if dom.KDominates(pj, winAttrs[wi*d:wi*d+d], k) {
					live[w] ^= t
					alive--
				}
			}
		}
		if alive == 0 {
			break
		}
	}
	var result []int
	for wi, c := range winIDs {
		if live[wi>>6]&(1<<(wi&63)) != 0 {
			result = append(result, c)
		}
	}
	sort.Ints(result)
	return result
}

// SkylineVerify returns the k-dominant skyline by first computing the full
// (d-dominance) skyline S with SFS and then keeping exactly the points not
// k-dominated by any member of S.
//
// Correctness rests on: if q k-dominates p then some full-skyline point s
// k-dominates p. (Take s ∈ S with s fully dominating q, or s = q itself;
// s ≤ q componentwise carries q's k ≤-positions and strict position over
// to s.) Full dominance is transitive, so the chain terminates in S.
func SkylineVerify(points [][]float64, k int) []int {
	sky := skyline.SFS(points)
	var result []int
	for i, p := range points {
		dominated := false
		for _, s := range sky {
			if s != i && dom.KDominates(points[s], p, k) {
				dominated = true
				break
			}
		}
		if !dominated {
			result = append(result, i)
		}
	}
	return result
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
