package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile before
// the benchmark treats it as measured rather than as an extrapolation.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between the
// order statistics at rank (len-1)·q. xs need not be sorted; it is not
// modified. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// beyond counts the samples ranked strictly above the q-quantile of n
// samples, i.e. those with rank greater than (n-1)·q.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*q))
}

// tailMeasured reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func tailMeasured(n int, q float64) bool { return beyond(n, q) >= minBeyond }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so a spread computed here matches one computed from the same
// numbers in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
