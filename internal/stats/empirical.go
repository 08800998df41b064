package stats

import (
	"fmt"
	"sort"
)

// Empirical is a distribution defined by a set of observed samples. Sampling
// draws uniformly from the observations (bootstrap resampling); CDF is the
// empirical CDF. Impressions uses it when the user supplies raw data instead
// of a parametric model.
type Empirical struct {
	sorted []float64
	label  string
}

// NewEmpirical builds an empirical distribution from the given samples.
// It panics if samples is empty. The input slice is copied.
func NewEmpirical(samples []float64, label string) Empirical {
	if len(samples) == 0 {
		panic("stats: empirical distribution needs at least one sample")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	if label == "" {
		label = "empirical"
	}
	return Empirical{sorted: s, label: label}
}

// Sample draws one observation uniformly at random.
func (e Empirical) Sample(rng *RNG) float64 {
	return e.sorted[rng.Intn(len(e.sorted))]
}

// Mean returns the sample mean.
func (e Empirical) Mean() float64 {
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// CDF returns the empirical CDF at x: the fraction of samples <= x.
func (e Empirical) CDF(x float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index >= x; advance over ties so the
	// CDF is right-continuous (counts values equal to x).
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile (nearest-rank method).
func (e Empirical) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(q * float64(len(e.sorted)))
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Len returns the number of observations.
func (e Empirical) Len() int { return len(e.sorted) }

// Values returns a copy of the sorted observations.
func (e Empirical) Values() []float64 {
	out := make([]float64, len(e.sorted))
	copy(out, e.sorted)
	return out
}

// Name implements Distribution.
func (e Empirical) Name() string {
	return fmt.Sprintf("%s(n=%d)", e.label, len(e.sorted))
}

// Categorical is a distribution over a fixed set of named categories with
// given probabilities. Impressions uses it for extension popularity, which
// Table 2 records as "percentile values" for the top-20 extensions by count
// and by bytes. Sampling is O(1) via a Walker–Vose alias table.
type Categorical struct {
	names   []string
	weights []float64
	alias   AliasTable
}

// NewCategorical builds a categorical distribution. Weights are normalized;
// they must be non-negative with a positive sum, and names must be non-empty
// and the same length as weights.
func NewCategorical(names []string, weights []float64) Categorical {
	if len(names) == 0 || len(names) != len(weights) {
		panic("stats: categorical needs matching non-empty names and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: categorical weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: categorical weights must sum to a positive value")
	}
	c := Categorical{
		names:   append([]string(nil), names...),
		weights: make([]float64, len(weights)),
		alias:   NewAliasTable(weights),
	}
	for i, w := range weights {
		c.weights[i] = w / total
	}
	return c
}

// SampleIndex returns a category index drawn according to the weights in O(1).
func (c Categorical) SampleIndex(rng *RNG) int {
	return c.alias.Sample(rng)
}

// Prob returns the probability of the named category (0 if unknown).
func (c Categorical) Prob(name string) float64 {
	for i, n := range c.names {
		if n == name {
			return c.weights[i]
		}
	}
	return 0
}

// Names returns the category names in declaration order.
func (c Categorical) Names() []string { return append([]string(nil), c.names...) }

// Probs returns the normalized probabilities in declaration order.
func (c Categorical) Probs() []float64 { return append([]float64(nil), c.weights...) }

// Len returns the number of categories.
func (c Categorical) Len() int { return len(c.names) }

// Name returns a short identifier.
func (c Categorical) Name() string { return fmt.Sprintf("categorical(n=%d)", len(c.names)) }
