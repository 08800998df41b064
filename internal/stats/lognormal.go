package stats

import (
	"fmt"
	"math"
)

// Lognormal is a lognormal distribution: ln(X) ~ Normal(Mu, Sigma).
// It models the body of the file-size-by-count distribution (Table 2 of the
// paper: µ=9.48, σ=2.46).
type Lognormal struct {
	Mu    float64 // mean of ln(X)
	Sigma float64 // standard deviation of ln(X)
}

// NewLognormal returns a lognormal distribution with the given log-space
// mean and standard deviation. It panics if sigma <= 0.
func NewLognormal(mu, sigma float64) Lognormal {
	if sigma <= 0 {
		panic("stats: lognormal sigma must be positive")
	}
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample draws one lognormal variate.
func (l Lognormal) Sample(rng *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Median returns exp(mu).
func (l Lognormal) Median() float64 { return math.Exp(l.Mu) }

// Variance returns the variance of the distribution.
func (l Lognormal) Variance() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// CDF returns P(X <= x).
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// PDF returns the probability density at x.
func (l Lognormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// Quantile returns the value x such that CDF(x) = p, for p in (0,1).
func (l Lognormal) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Exp(l.Mu + l.Sigma*normQuantile(p))
}

// Name implements Distribution.
func (l Lognormal) Name() string {
	return fmt.Sprintf("lognormal(mu=%.4g,sigma=%.4g)", l.Mu, l.Sigma)
}

// normQuantile returns the standard normal quantile using the
// Beasley-Springer-Moro / Acklam rational approximation, accurate to ~1e-9.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	const phigh = 1 - plow

	var q, r, x float64
	switch {
	case p < plow:
		q = math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q = p - 0.5
		r = q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley refinement.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
