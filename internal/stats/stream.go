package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is an online mean/variance accumulator (Welford's algorithm): one
// observation at a time, O(1) memory, numerically stable at any sample size.
// It is the reduction backbone of the engine's streaming batch runs, where
// 10⁵–10⁶ repetitions must be summarized without retaining them. The zero
// value is an empty accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased (n-1) sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// P2Quantile estimates a single quantile online with the P² algorithm of
// Jain and Chlamtac (1985): five markers track the quantile and its
// neighborhood, adjusted with piecewise-parabolic interpolation as
// observations stream in. O(1) memory, no retained sample; the estimate
// converges to the true quantile as the sample grows. Use NewP2Quantile.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns an estimator for the q-th quantile, q in (0, 1).
// It panics for q outside the open interval.
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: P2Quantile needs q in (0, 1), got %v", q))
	}
	e := &P2Quantile{p: q}
	e.pos = [5]float64{1, 2, 3, 4, 5}
	e.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	e.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return e
}

// Quantile returns the quantile being estimated.
func (e *P2Quantile) Quantile() float64 { return e.p }

// N returns the number of observations.
func (e *P2Quantile) N() int { return e.n }

// Add records one observation.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.heights[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.heights[:])
		}
		return
	}
	e.n++
	// Find the marker cell containing x and clamp the extreme markers.
	var k int
	switch {
	case x < e.heights[0]:
		e.heights[0] = x
		k = 0
	case x < e.heights[1]:
		k = 0
	case x < e.heights[2]:
		k = 1
	case x < e.heights[3]:
		k = 2
	case x <= e.heights[4]:
		k = 3
	default:
		e.heights[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.incr[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := e.parabolic(i, sign)
			if e.heights[i-1] < h && h < e.heights[i+1] {
				e.heights[i] = h
			} else {
				e.heights[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for marker i
// moved by sign (±1).
func (e *P2Quantile) parabolic(i int, sign float64) float64 {
	return e.heights[i] + sign/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+sign)*(e.heights[i+1]-e.heights[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-sign)*(e.heights[i]-e.heights[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback linear height prediction.
func (e *P2Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return e.heights[i] + sign*(e.heights[j]-e.heights[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. For fewer than five
// observations it falls back to the exact small-sample quantile.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		small := make([]float64, e.n)
		copy(small, e.heights[:e.n])
		return Quantile(small, e.p)
	}
	return e.heights[2]
}

// Stream summarizes a stream of observations in O(1) memory: exact running
// mean/variance/min/max via Welford plus P² estimates for a fixed set of
// quantiles. It is what engine.BatchStats and rumord's run summaries fold
// every repetition into.
type Stream struct {
	Welford
	quantiles []*P2Quantile
}

// NewStream returns a streaming summary tracking the given quantiles (each
// in (0, 1); duplicates are tracked independently).
func NewStream(quantiles ...float64) *Stream {
	s := &Stream{}
	for _, q := range quantiles {
		s.quantiles = append(s.quantiles, NewP2Quantile(q))
	}
	return s
}

// Add records one observation in every accumulator.
func (s *Stream) Add(x float64) {
	s.Welford.Add(x)
	for _, e := range s.quantiles {
		e.Add(x)
	}
}

// QuantileEstimate returns the P² estimate for the i-th tracked quantile
// (in the order passed to NewStream).
func (s *Stream) QuantileEstimate(i int) float64 { return s.quantiles[i].Value() }

// Quantiles returns the tracked quantile levels in order.
func (s *Stream) Quantiles() []float64 {
	out := make([]float64, len(s.quantiles))
	for i, e := range s.quantiles {
		out[i] = e.p
	}
	return out
}
