package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the estimator numpy and Python's
// statistics module call "inclusive". It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond returns how many of n samples lie above the p-th percentile's
// rank: n − ⌈n·p/100⌉.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// reportable is the set of percentiles the benchmark may print, lowest
// first.
var reportable = []float64{50, 75, 90, 95, 99}

// highestSupported returns the highest reportable percentile that has at
// least ten samples beyond it in a sample of n, or 0 when even the median
// has fewer (n < 20). A percentile printed above this one rests on fewer
// than ten observations and is flagged in the output.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
