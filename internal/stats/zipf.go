package stats

import (
	"fmt"
	"math"
)

// Zipf is a Zipf (discrete power-law) distribution over ranks 1..N with
// exponent S: P(rank k) ∝ 1/k^S. Impressions uses Zipfian rank models for
// word popularity in generated file content (§3.6 of the paper, following
// Sigurd et al.'s "Zipf revisited" word models).
type Zipf struct {
	S float64 // exponent
	N int     // number of ranks

	pmf   []float64 // normalized probabilities, pmf[k-1] = P(rank k)
	alias AliasTable
}

// NewZipf constructs a Zipf distribution over ranks 1..n with exponent s.
// Sampling is O(1) via a Walker–Vose alias table. It panics if n <= 0 or
// s < 0.
func NewZipf(s float64, n int) Zipf {
	if n <= 0 {
		panic("stats: zipf needs at least one rank")
	}
	if s < 0 {
		panic("stats: zipf exponent must be non-negative")
	}
	z := Zipf{S: s, N: n}
	z.pmf = make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		w := 1 / math.Pow(float64(k), s)
		z.pmf[k-1] = w
		total += w
	}
	for k := range z.pmf {
		z.pmf[k] /= total
	}
	z.alias = NewAliasTable(z.pmf)
	return z
}

// SampleInt returns a rank in [1, N] in O(1).
func (z *Zipf) SampleInt(rng *RNG) int {
	return z.alias.Sample(rng) + 1
}

// SampleIntU maps one externally-drawn uniform in [0,1) to a rank in [1, N].
func (z *Zipf) SampleIntU(u float64) int {
	return z.alias.SampleU(u) + 1
}

// PMF returns P(rank = k).
func (z Zipf) PMF(k int) float64 {
	if k < 1 || k > z.N {
		return 0
	}
	return z.pmf[k-1]
}

// Mean returns the mean rank.
func (z Zipf) Mean() float64 {
	mean := 0.0
	for k := 1; k <= z.N; k++ {
		mean += float64(k) * z.pmf[k-1]
	}
	return mean
}

// Name returns a short identifier used in reproducibility reports.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(s=%.3g,n=%d)", z.S, z.N) }
