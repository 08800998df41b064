package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a binned distribution with explicit bin edges. Impressions
// uses power-of-two binned histograms for file sizes (as the paper's Figure 2
// plots them), and unit-width bins for depth distributions.
//
// Bins are defined by Edges: bin i covers [Edges[i], Edges[i+1]). A value
// below Edges[0] lands in bin 0 and a value at or above the last edge lands
// in the last bin, so the histogram always accounts for all observations.
type Histogram struct {
	Edges  []float64 // len = number of bins + 1, strictly increasing
	Counts []float64 // len = number of bins; may be weighted (e.g. bytes)
}

// NewHistogram creates an empty histogram with the given edges.
// It panics if fewer than two edges are given or they are not increasing.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly increasing")
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]float64, len(edges)-1),
	}
}

// PowerOfTwoEdges returns bin edges 0, 1, 2, 4, 8, ..., 2^maxExp. This is the
// "power-of-2 bins with a special abscissa for zero" layout used throughout
// the paper's figures.
func PowerOfTwoEdges(maxExp int) []float64 {
	if maxExp < 1 {
		maxExp = 1
	}
	edges := make([]float64, 0, maxExp+2)
	edges = append(edges, 0, 1)
	for e := 1; e <= maxExp; e++ {
		edges = append(edges, math.Pow(2, float64(e)))
	}
	return edges
}

// UnitEdges returns edges 0,1,2,...,n producing n unit-width bins, used for
// namespace-depth histograms (bin size 1).
func UnitEdges(n int) []float64 {
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = float64(i)
	}
	return edges
}

// NewPowerOfTwoHistogram creates an empty power-of-two binned histogram
// covering values up to 2^maxExp.
func NewPowerOfTwoHistogram(maxExp int) *Histogram {
	return NewHistogram(PowerOfTwoEdges(maxExp))
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// binIndex returns the bin index for value v.
func (h *Histogram) binIndex(v float64) int {
	if v < h.Edges[0] {
		return 0
	}
	// Find first edge > v; bin is that index - 1.
	idx := sort.SearchFloat64s(h.Edges, v)
	if idx < len(h.Edges) && h.Edges[idx] == v {
		idx++
	}
	bin := idx - 1
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	return bin
}

// Add adds one observation of value v.
func (h *Histogram) Add(v float64) { h.AddWeighted(v, 1) }

// AddWeighted adds an observation of value v with the given weight. Weighted
// histograms are how "bytes by containing file size" curves are built: each
// file contributes its size in bytes as the weight.
func (h *Histogram) AddWeighted(v, weight float64) {
	h.Counts[h.binIndex(v)] += weight
}

// Total returns the sum of all bin counts.
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Normalize returns the fraction of mass in each bin. If the histogram is
// empty, all fractions are zero.
func (h *Histogram) Normalize() []float64 {
	out := make([]float64, len(h.Counts))
	total := h.Total()
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / total
	}
	return out
}

// CDF returns the cumulative fraction of mass at or below each bin's upper
// edge. The returned slice has one entry per bin and is non-decreasing,
// ending at 1 for a non-empty histogram.
func (h *Histogram) CDF() []float64 {
	fracs := h.Normalize()
	out := make([]float64, len(fracs))
	acc := 0.0
	for i, f := range fracs {
		acc += f
		out[i] = acc
	}
	return out
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		Edges:  append([]float64(nil), h.Edges...),
		Counts: append([]float64(nil), h.Counts...),
	}
}

// Reset zeroes all counts, keeping the edges.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
}

// BinLabel returns a human-readable label for bin i (its lower edge),
// formatted with binary unit suffixes for readability in experiment output.
func (h *Histogram) BinLabel(i int) string {
	if i < 0 || i >= len(h.Counts) {
		return "?"
	}
	return FormatBytes(h.Edges[i])
}

// String renders the histogram as "label:frac" pairs; mainly for debugging.
func (h *Histogram) String() string {
	fracs := h.Normalize()
	var b strings.Builder
	for i, f := range fracs {
		if f == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:%.4f ", h.BinLabel(i), f)
	}
	return strings.TrimSpace(b.String())
}

// FormatBytes renders a byte count with binary suffixes (8, 2K, 512K, 512M,
// 64G ...) matching the axis labels used in the paper's figures.
func FormatBytes(v float64) string {
	switch {
	case v >= 1<<40:
		return fmt.Sprintf("%.4gT", v/(1<<40))
	case v >= 1<<30:
		return fmt.Sprintf("%.4gG", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.4gM", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.4gK", v/(1<<10))
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// SameEdges reports whether two histograms share identical bin edges.
func SameEdges(a, b *Histogram) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}
