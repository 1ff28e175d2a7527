// Package bound evaluates the theoretical spread-time bounds of the paper and
// of the related work the paper compares against:
//
//   - Theorem 1.1: T(G, c), the conductance·diligence bound for the
//     asynchronous algorithm in dynamic networks.
//   - Theorem 1.3: T_abs(G), the absolute-diligence bound (and the O(n²)
//     corollary of Remark 1.4).
//   - Corollary 1.6: min{T(G,c), T_abs(G)}.
//   - The Giakkoupis–Sauerwald–Stauffer bound for the synchronous algorithm,
//     which carries the M(G) = max_u Δ_u/δ_u factor (Section 1.2).
package bound

import (
	"errors"
	"math"
)

// ErrNotReached is returned when the bound's threshold is not reached within
// the step budget, e.g. because the profile keeps returning zeros.
var ErrNotReached = errors.New("bound: threshold not reached within the step budget")

// C0 is the constant c0 = 1/2 - 1/e appearing in Lemma 2.2 and Theorem 1.1.
const C0 = 0.5 - 1/math.E

// StepProfile describes the graph parameters of one step of a dynamic
// network, as needed by the bounds.
type StepProfile struct {
	// Phi is the conductance Φ(G^(t)) (0 if disconnected).
	Phi float64
	// Rho is the diligence ρ(G^(t)) (0 if disconnected).
	Rho float64
	// AbsRho is the absolute diligence ρ̄(G^(t)) (0 if the graph is empty).
	AbsRho float64
	// Connected reports whether G^(t) is connected (the ⌈Φ⌉ factor of
	// Theorem 1.3).
	Connected bool
}

// ProfileFunc returns the profile of step t. Implementations may be analytic
// (for the paper's constructions) or measured (exact/spectral computation on
// recorded graphs).
type ProfileFunc func(t int) StepProfile

// Theorem11Constant returns C = (10c + 20)/c0, the constant of Theorem 1.1
// for failure probability n^{-c}.
func Theorem11Constant(c float64) float64 {
	if c < 1 {
		c = 1
	}
	return (10*c + 20) / C0
}

// Theorem11 returns T(G, c) = min{ t : Σ_{p=0}^t Φ(G^(p))·ρ(p) ≥ C·log n },
// the Theorem 1.1 upper bound on the spread time of the asynchronous
// algorithm. maxSteps bounds the search (0 means 64·n²).
func Theorem11(profile ProfileFunc, n int, c float64, maxSteps int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	if maxSteps <= 0 {
		maxSteps = 64 * n * n
	}
	threshold := Theorem11Constant(c) * math.Log(float64(n))
	sum := 0.0
	for t := 0; t <= maxSteps; t++ {
		p := profile(t)
		sum += p.Phi * p.Rho
		if sum >= threshold {
			return t, nil
		}
	}
	return 0, ErrNotReached
}

// Theorem11Normalized returns the first step at which Σ Φ·ρ exceeds
// factor·log n. It exposes the structure of the bound without the large
// worst-case constant of the proof, which is what the experiments use to
// compare growth shapes (the constant only shifts the bound by a fixed
// multiplicative amount).
func Theorem11Normalized(profile ProfileFunc, n int, factor float64, maxSteps int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	if factor <= 0 {
		factor = 1
	}
	if maxSteps <= 0 {
		maxSteps = 64 * n * n
	}
	threshold := factor * math.Log(float64(n))
	sum := 0.0
	for t := 0; t <= maxSteps; t++ {
		p := profile(t)
		sum += p.Phi * p.Rho
		if sum >= threshold {
			return t, nil
		}
	}
	return 0, ErrNotReached
}

// Theorem13 returns T_abs(G) = min{ t : Σ_{p=0}^t ⌈Φ(G^(p))⌉·ρ̄(p) ≥ 2n },
// the Theorem 1.3 upper bound. maxSteps bounds the search (0 means 64·n²).
func Theorem13(profile ProfileFunc, n int, maxSteps int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	if maxSteps <= 0 {
		maxSteps = 64 * n * n
	}
	threshold := 2 * float64(n)
	sum := 0.0
	for t := 0; t <= maxSteps; t++ {
		p := profile(t)
		if p.Connected {
			sum += p.AbsRho
		}
		if sum >= threshold {
			return t, nil
		}
	}
	return 0, ErrNotReached
}

// Corollary16 returns min{T(G,c), T_abs(G)} (Corollary 1.6). If only one of
// the two bounds is reached within maxSteps, that one is returned.
func Corollary16(profile ProfileFunc, n int, c float64, maxSteps int) (int, error) {
	t1, err1 := Theorem11(profile, n, c, maxSteps)
	t2, err2 := Theorem13(profile, n, maxSteps)
	switch {
	case err1 == nil && err2 == nil:
		if t1 < t2 {
			return t1, nil
		}
		return t2, nil
	case err1 == nil:
		return t1, nil
	case err2 == nil:
		return t2, nil
	default:
		return 0, ErrNotReached
	}
}

// Remark14WorstCase returns the O(n²) bound of Remark 1.4: a connected
// dynamic network is absolutely 1/(n-1)-diligent, so T_abs ≤ 2n(n-1).
func Remark14WorstCase(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * float64(n) * float64(n-1)
}

// GiakkoupisSync returns the related-work upper bound for the synchronous
// push-pull algorithm in dynamic networks (Giakkoupis, Sauerwald, Stauffer;
// Section 1.2): min{ t : Σ_{p=0}^t Φ(G^(p)) ≥ factor·M·log n }, where
// M = max_u Δ_u/δ_u is the global degree-fluctuation ratio. factor plays the
// role of the (unspecified) constant in the Ω(·) threshold; pass 1 to compare
// shapes.
func GiakkoupisSync(profile ProfileFunc, n int, maxDegreeRatio, factor float64, maxSteps int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	if factor <= 0 {
		factor = 1
	}
	if maxDegreeRatio < 1 {
		maxDegreeRatio = 1
	}
	if maxSteps <= 0 {
		maxSteps = 64 * n * n
	}
	threshold := factor * maxDegreeRatio * math.Log(float64(n))
	sum := 0.0
	for t := 0; t <= maxSteps; t++ {
		sum += profile(t).Phi
		if sum >= threshold {
			return t, nil
		}
	}
	return 0, ErrNotReached
}

// ConstantProfile returns a ProfileFunc that reports the same profile at
// every step; convenient for static networks and for constructions whose
// per-step parameters do not change.
func ConstantProfile(p StepProfile) ProfileFunc {
	return func(int) StepProfile { return p }
}

// Lemma22Bound returns the Poisson tail bound of Lemma 2.2:
// Pr[X ≤ r/2] ≤ e^{r(1/e + 1/2 - 1)} for X ~ Poisson(r).
func Lemma22Bound(r float64) float64 {
	return math.Exp(r * (1/math.E + 0.5 - 1))
}
