package stats

import "math"

// AliasTable is a Walker–Vose alias table: an O(1) sampler for an arbitrary
// discrete distribution over indices 0..n-1. Construction is O(n); every
// sample costs exactly one 64-bit draw, a shift, one 8-byte column read and
// a masked select, independent of n. It is the shared hot-path sampler behind
// Categorical, Zipf, the content engine's word draws, and the dataset's
// extension percentile table — all of which previously paid an O(log n)
// binary search over a cumulative table per sample.
//
// The table is padded to a power-of-two column count so sampling needs no
// division or float conversion: the top bits of a uint64 pick the column and
// the low 32 bits decide between the column and its alias (padding columns
// carry zero probability and always redirect, so they are never returned).
//
// An AliasTable is immutable after construction and safe for concurrent use.
type AliasTable struct {
	// prob[i] is the probability of keeping column i when it is hit, scaled
	// so the comparison works directly on the fractional part of u*m; the
	// complement redirects to cols[i].Alias.
	prob []float64
	// cols holds each column's alias and prob quantized to 32 bits for the
	// integer fast path.
	cols []AliasColumn
	// shift extracts the column index from a uint64's top bits.
	shift uint
	// nf is float64(len(prob)) for the float path.
	nf float64
	// n is the original (unpadded) category count.
	n int
}

// AliasColumn is one column of an AliasTable in the integer fast path's
// layout: the sampler keeps the column when a draw's low 32 bits fall under
// Thresh and returns Alias otherwise. One column is one 8-byte read.
type AliasColumn struct {
	Thresh uint32
	Alias  int32
}

// NewAliasTable builds an alias table for the given weights. Weights must be
// non-negative with a positive sum; they need not be normalized. It panics on
// invalid input, matching NewCategorical's contract.
func NewAliasTable(weights []float64) AliasTable {
	n := len(weights)
	if n == 0 {
		panic("stats: alias table needs at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: alias table weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: alias table weights must sum to a positive value")
	}

	// Pad the column count to a power of two for the integer fast path.
	m, k := 1, 0
	for m < n {
		m <<= 1
		k++
	}
	t := AliasTable{
		prob:  make([]float64, m),
		cols:  make([]AliasColumn, m),
		shift: uint(64 - k),
		nf:    float64(m),
		n:     n,
	}
	// Scale weights so the average column holds exactly 1 (padding columns
	// hold 0 and will always redirect to a real column).
	scaled := make([]float64, m)
	for i, w := range weights {
		scaled[i] = w * float64(m) / total
	}
	// Partition columns into those under- and over-filled relative to 1.
	small := make([]int32, 0, m)
	large := make([]int32, 0, m)
	for i := m - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	// Vose's pairing: each small column is topped up by one large column.
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.cols[s].Alias = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are exactly full up to rounding error.
	for _, i := range large {
		t.prob[i] = 1
		t.cols[i].Alias = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.cols[i].Alias = i
	}
	for i, p := range t.prob {
		if p >= 1 {
			// Full columns keep themselves; the 2^-32 quantization loss
			// redirects to alias i itself, so the result is unchanged.
			t.cols[i].Thresh = math.MaxUint32
		} else {
			t.cols[i].Thresh = uint32(p * (1 << 32))
		}
	}
	return t
}

// Sample returns an index in [0, n) with probability proportional to its
// weight, consuming exactly one 64-bit draw from rng.
func (t *AliasTable) Sample(rng *RNG) int {
	return t.SampleBits(rng.Uint64())
}

// SampleBits maps one uniform 64-bit value to an index using only integer
// operations: the top bits select the column, the low 32 bits the
// keep-or-alias decision.
func (t *AliasTable) SampleBits(v uint64) int { return PickColumn(t.cols, t.shift, v) }

// Columns returns the table's columns and the shift that maps a draw to one,
// for a loop that keeps both in registers and samples with PickColumn.
func (t *AliasTable) Columns() ([]AliasColumn, uint) { return t.cols, t.shift }

// PickColumn is SampleBits over the columns and shift from Columns. The
// keep-or-alias decision is a masked select, not a branch: it is a coin
// flip no predictor learns.
func PickColumn(cols []AliasColumn, shift uint, v uint64) int {
	i := v >> shift
	c := cols[i]
	// lt is 1 when the low 32 bits fall under the threshold, else 0.
	lt := (uint64(uint32(v)) - uint64(c.Thresh)) >> 63
	return int(i ^ ((i ^ uint64(c.Alias)) & (lt - 1)))
}

// SampleU maps one uniform value in [0,1) to an index, for callers that
// derive their uniforms elsewhere (per-index streams, quasi-random inputs).
func (t *AliasTable) SampleU(u float64) int {
	scaled := u * t.nf
	i := int(scaled)
	if i >= len(t.prob) { // guard u rounding up to 1.0*m
		i = len(t.prob) - 1
	}
	if scaled-float64(i) < t.prob[i] {
		return i
	}
	return int(t.cols[i].Alias)
}

// Len returns the number of categories.
func (t *AliasTable) Len() int { return t.n }
