// Package stats provides the small statistical toolkit used by the
// experiment harness and the engine: sample moments and quantiles, empirical
// CDFs and the two-sample KS distance, least-squares and growth-exponent
// fits, and the streaming accumulators (Welford moments, P² quantiles,
// Stream, its binary codec and the ordered chunk Merger) that reduce
// ensembles without storing them.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than two values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It returns 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EmpiricalCDF returns the fraction of samples that are <= x.
func EmpiricalCDF(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, v := range xs {
		if v <= x {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |F_a(x) - F_b(x)|.
func KSDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	i, j := 0, 0
	maxDiff := 0.0
	for i < len(sa) && j < len(sb) {
		var x float64
		if sa[i] <= sb[j] {
			x = sa[i]
		} else {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}

// LinearFit fits y = a + b*x by least squares and returns (a, b).
// It returns an error if fewer than two points are given or x is degenerate.
func LinearFit(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) {
		return 0, 0, errors.New("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		return 0, 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: LinearFit degenerate x")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// GrowthExponent fits y ~ C * x^alpha on log-log scale and returns alpha.
// Points with non-positive coordinates are skipped. It returns an error if
// fewer than two usable points remain.
func GrowthExponent(x, y []float64) (alpha float64, err error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: GrowthExponent length mismatch")
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	_, alpha, err = LinearFit(lx, ly)
	return alpha, err
}
