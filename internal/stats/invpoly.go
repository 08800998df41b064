package stats

import (
	"fmt"
	"math"
)

// InversePolynomial is a discrete distribution over k = 0, 1, 2, ... with
// un-normalized weight 1/(k+Offset)^Degree. Impressions uses it to model the
// number of files contained in a directory when choosing a parent for a new
// file (Table 2 of the paper: degree=2, offset=2.36).
//
// The distribution is truncated at MaxK to make the normalization finite and
// the sampler exact; MaxK defaults to 4096 which covers any realistic
// directory size.
type InversePolynomial struct {
	Degree float64
	Offset float64
	MaxK   int

	cum     []float64 // cumulative probabilities, built at construction
	weights []float64 // Weight(k) for k = 0..MaxK, built at construction
}

// NewInversePolynomial builds the distribution; it panics on non-positive
// degree/offset.
func NewInversePolynomial(degree, offset float64, maxK int) InversePolynomial {
	if degree <= 0 || offset <= 0 {
		panic("stats: inverse-polynomial degree and offset must be positive")
	}
	if maxK <= 0 {
		maxK = 4096
	}
	weights := make([]float64, maxK+1)
	total := 0.0
	for k := 0; k <= maxK; k++ {
		w := 1 / math.Pow(float64(k)+offset, degree)
		weights[k] = w
		total += w
	}
	ip := InversePolynomial{Degree: degree, Offset: offset, MaxK: maxK, weights: weights}
	ip.cum = make([]float64, maxK+1)
	acc := 0.0
	for k := 0; k <= maxK; k++ {
		acc += weights[k] / total
		ip.cum[k] = acc
	}
	return ip
}

// SampleInt draws k by inverse transform over the precomputed CDF using
// binary search.
func (ip InversePolynomial) SampleInt(rng *RNG) int {
	u := rng.Float64()
	lo, hi := 0, ip.MaxK
	for lo < hi {
		mid := (lo + hi) / 2
		if ip.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PMF returns P(X = k).
func (ip InversePolynomial) PMF(k int) float64 {
	if k < 0 || k > ip.MaxK {
		return 0
	}
	if k == 0 {
		return ip.cum[0]
	}
	return ip.cum[k] - ip.cum[k-1]
}

// Weight returns the un-normalized selection weight for a directory that
// currently contains k files. Impressions uses this directly when biasing the
// choice of parent directory. For 0 <= k <= MaxK it reads the weight the
// constructor computed, the same float64.
func (ip InversePolynomial) Weight(k int) float64 {
	if k < 0 {
		k = 0
	}
	if k < len(ip.weights) {
		return ip.weights[k]
	}
	return 1 / math.Pow(float64(k)+ip.Offset, ip.Degree)
}

// Mean returns the mean of the truncated distribution.
func (ip InversePolynomial) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for k := 0; k <= ip.MaxK; k++ {
		mean += float64(k) * (ip.cum[k] - prev)
		prev = ip.cum[k]
	}
	return mean
}

// Name returns a short identifier used in reproducibility reports.
func (ip InversePolynomial) Name() string {
	return fmt.Sprintf("inverse-polynomial(degree=%.3g,offset=%.3g)", ip.Degree, ip.Offset)
}
