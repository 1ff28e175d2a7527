package engine

import (
	"dynamicrumor/internal/analysis"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
)

// Ensemble is the aggregated outcome of a batch run: the scenario that
// produced it and one Result per repetition, in repetition order. The
// aggregation methods absorb the free-standing helpers that used to live in
// rumor/analysis.go, so spread-time quantiles, completion rates and spread
// curves are one method call away from any batch run.
type Ensemble struct {
	// Scenario is the spec the batch executed.
	Scenario Scenario
	// Results holds one result per repetition, in repetition order.
	Results []*sim.Result
}

// Reps returns the number of repetitions in the ensemble.
func (e *Ensemble) Reps() int { return len(e.Results) }

// SpreadTimes returns the per-repetition spread times in repetition order.
// Repetitions that hit the time limit report the cutoff time; check
// CompletionRate when that distinction matters.
func (e *Ensemble) SpreadTimes() []float64 {
	out := make([]float64, len(e.Results))
	for i, r := range e.Results {
		out[i] = r.SpreadTime
	}
	return out
}

// CompletionRate returns the fraction of repetitions that informed every
// vertex before their limit.
func (e *Ensemble) CompletionRate() float64 {
	if len(e.Results) == 0 {
		return 0
	}
	done := 0
	for _, r := range e.Results {
		if r.Completed {
			done++
		}
	}
	return float64(done) / float64(len(e.Results))
}

// MeanSpreadTime returns the mean spread time across repetitions.
func (e *Ensemble) MeanSpreadTime() float64 { return stats.Mean(e.SpreadTimes()) }

// SpreadTimeQuantile returns the empirical q-quantile (q in [0, 1]) of the
// spread times.
func (e *Ensemble) SpreadTimeQuantile(q float64) float64 {
	return stats.Quantile(e.SpreadTimes(), q)
}

// MinMaxSpreadTime returns the extremes of the spread times; (0, 0) for an
// empty ensemble.
func (e *Ensemble) MinMaxSpreadTime() (min, max float64) {
	if len(e.Results) == 0 {
		return 0, 0
	}
	min, max = e.Results[0].SpreadTime, e.Results[0].SpreadTime
	for _, r := range e.Results[1:] {
		if r.SpreadTime < min {
			min = r.SpreadTime
		}
		if r.SpreadTime > max {
			max = r.SpreadTime
		}
	}
	return min, max
}

// SpreadCurve aggregates the repetition traces into an informed-fraction
// curve sampled at `points` evenly spaced times. The scenario must have been
// run with Trace enabled; it errors otherwise.
func (e *Ensemble) SpreadCurve(points int) ([]analysis.CurvePoint, error) {
	return analysis.Curve(e.Results, points)
}

// TimeToFraction returns, per repetition, the earliest traced time at which
// the informed fraction reached the target, plus how many repetitions
// reached it.
func (e *Ensemble) TimeToFraction(fraction float64) (times []float64, reached int) {
	return analysis.TimeToFraction(e.Results, fraction)
}

// TimeToFractionQuantiles summarizes TimeToFraction into its median and
// 0.9-quantile; it errors when no repetition reached the target.
func (e *Ensemble) TimeToFractionQuantiles(fraction float64) (median, q90 float64, err error) {
	return analysis.FractionQuantiles(e.Results, fraction)
}

// BatchStats is the O(1)-memory aggregate of a streaming batch run: exact
// running moments and extremes of the spread time, P² estimates for its
// median and 0.9-quantile, and the completion count. Unlike an Ensemble it
// retains no per-repetition results, so it is the right aggregate for
// 10⁵–10⁶-repetition runs:
//
//	st := NewBatchStats()
//	err := eng.RunReduceCtx(ctx, sc, reps, st.Add)
//
// The exact statistics (mean, variance, min, max, completion rate) match a
// RunBatch aggregation up to floating-point accumulation order; the
// quantiles are P² estimates, not exact order statistics — callers needing
// exact quantiles over the full sample collect the values themselves.
type BatchStats struct {
	// SpreadTime accumulates every repetition's spread time: exact
	// mean/variance/min/max plus P² median and 0.9-quantile estimates
	// (QuantileEstimate(0) and (1) respectively).
	SpreadTime *stats.Stream
	// Completed counts repetitions that informed every vertex before their
	// limit.
	Completed int
	// Reps is the number of repetitions aggregated.
	Reps int
}

// NewBatchStats returns an empty aggregate.
func NewBatchStats() *BatchStats {
	return &BatchStats{SpreadTime: stats.NewStream(0.5, 0.9)}
}

// Add folds one repetition's result into the aggregate. It is a Reducer, so
// st.Add can be passed straight to RunReduceCtx and its siblings; it never
// fails.
func (b *BatchStats) Add(rep int, res *sim.Result) error {
	b.SpreadTime.Add(res.SpreadTime)
	if res.Completed {
		b.Completed++
	}
	b.Reps++
	return nil
}

// CompletionRate returns the fraction of repetitions that completed.
func (b *BatchStats) CompletionRate() float64 {
	if b.Reps == 0 {
		return 0
	}
	return float64(b.Completed) / float64(b.Reps)
}
