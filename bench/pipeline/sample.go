package main

import "sort"

// sample summarises the repetitions of one metric on one workload. A metric
// measured once has N = 1 and every field equal to that value. Values keeps
// every repetition in the order it was made, so -compare can pool the
// invocations of one file and nothing that was run goes unreported.
type sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize reduces the repetitions to their median, extremes and quartiles.
// The quartiles follow Python's statistics.quantiles(v, n=4) (the exclusive
// method), so a spread computed here equals the one the driver computes.
func summarize(unit string, values []float64) sample {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	s := sample{Unit: unit, N: n, Values: values}
	if n == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[n-1]
	s.Median = (v[(n-1)/2] + v[n/2]) / 2
	s.Q1, s.Q3 = s.Median, s.Median
	if n >= 2 {
		s.Q1, s.Q3 = quartile(v, 1), quartile(v, 3)
	}
	return s
}

// quartile returns the i-th of the three cut points of sorted v.
func quartile(v []float64, i int) float64 {
	n := len(v)
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - j*4)
	return (v[j-1]*(4-delta) + v[j]*delta) / 4
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise a regression bound has to clear.
func (s sample) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}
