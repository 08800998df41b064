// Package gof implements the goodness-of-fit statistics Impressions relies on
// to guarantee the accuracy of generated file-system images (§3.2 of the
// paper): the Kolmogorov-Smirnov test (one- and two-sample), the Chi-Square
// test and MDCC (Maximum Displacement of the Cumulative Curves).
package gof

import (
	"errors"
	"math"
	"sort"

	"impressions/internal/stats"
)

// KSResult reports the outcome of a Kolmogorov-Smirnov test.
type KSResult struct {
	D        float64 // test statistic: max |F1 - F2|
	PValue   float64 // asymptotic p-value
	Critical float64 // critical value of D at the requested significance
	Passed   bool    // true if D <= Critical (fail to reject H0)
	N        int     // effective sample size used for the critical value
}

// ErrNoData is returned when a test is given an empty sample.
var ErrNoData = errors.New("gof: empty sample")

// KSOneSample runs the one-sample Kolmogorov-Smirnov test of the sample
// against a theoretical CDF at the given significance level (e.g. 0.05).
func KSOneSample(sample []float64, cdf func(float64) float64, alpha float64) (KSResult, error) {
	n := len(sample)
	if n == 0 {
		return KSResult{}, ErrNoData
	}
	s := make([]float64, n)
	copy(s, sample)
	sort.Float64s(s)

	d := 0.0
	for i, x := range s {
		f := cdf(x)
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	res := KSResult{D: d, N: n}
	res.PValue = ksPValue(d, float64(n))
	res.Critical = ksCritical(alpha, float64(n))
	res.Passed = d <= res.Critical
	return res, nil
}

// KSTwoSample runs the two-sample Kolmogorov-Smirnov test between samples a
// and b at the given significance level. This is the test Impressions runs
// after constraint resolution to confirm the constrained sample still follows
// the original distribution (§3.4, Table 4).
func KSTwoSample(a, b []float64, alpha float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrNoData
	}
	sa := make([]float64, len(a))
	sb := make([]float64, len(b))
	stats.SortFloat64s(sa, a)
	stats.SortFloat64s(sb, b)

	na, nb := len(sa), len(sb)
	var i, j int
	d := 0.0
	for i < na && j < nb {
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < na && sa[i] <= x {
			i++
		}
		for j < nb && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	res := KSResult{D: d, N: int(math.Round(ne))}
	res.PValue = ksPValue(d, ne)
	res.Critical = ksCritical(alpha, ne)
	res.Passed = d <= res.Critical
	return res, nil
}

// KSStatisticCDFs returns the maximum absolute difference between two
// cumulative curves evaluated over shared bins. Both slices must have the
// same length. This is also the definition of MDCC; see mdcc.go.
func KSStatisticCDFs(cdf1, cdf2 []float64) float64 {
	n := len(cdf1)
	if len(cdf2) < n {
		n = len(cdf2)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		diff := math.Abs(cdf1[i] - cdf2[i])
		if diff > d {
			d = diff
		}
	}
	return d
}

// ksPValue returns the asymptotic Kolmogorov p-value Q_KS((sqrt(n) + 0.12 +
// 0.11/sqrt(n)) * d) following Numerical Recipes.
func ksPValue(d, n float64) float64 {
	if d <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(n)
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	// Q_KS(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2)
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ksCritical returns the approximate critical value of the KS statistic at
// significance alpha for effective sample size n (large-sample
// approximation: c(alpha)/sqrt(n)).
func ksCritical(alpha, n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	c := math.Sqrt(-0.5 * math.Log(alpha/2))
	return c / math.Sqrt(n)
}
