// Package interp implements the piecewise interpolation and extrapolation of
// file-system distribution curves described in §3.5 of the paper. Impressions
// keeps one curve per observed file-system size (e.g. file-size histograms
// for 10 GB, 50 GB and 100 GB file systems) and, when a user asks for an
// unobserved size (75 GB, 125 GB), treats every histogram bin as an
// independent segment, interpolating (or linearly extrapolating) the bin
// value as a function of file-system size, then renormalizes the composite
// curve.
package interp

import (
	"errors"
	"sort"

	"impressions/internal/stats"
)

// CurveSet is a collection of histograms sharing identical bin edges, each
// associated with a scalar key (file-system size in bytes in the paper's
// usage).
type CurveSet struct {
	keys   []float64
	curves []*stats.Histogram
}

// ErrEmptyCurveSet is returned when interpolation is attempted with no
// reference curves.
var ErrEmptyCurveSet = errors.New("interp: curve set is empty")

// ErrMismatchedEdges is returned when curves with different bin edges are
// added to the same set.
var ErrMismatchedEdges = errors.New("interp: histogram edges do not match the curve set")

// NewCurveSet returns an empty curve set.
func NewCurveSet() *CurveSet { return &CurveSet{} }

// Add inserts a reference curve for the given key. Curves must all share the
// same bin edges.
func (cs *CurveSet) Add(key float64, h *stats.Histogram) error {
	if len(cs.curves) > 0 && !stats.SameEdges(cs.curves[0], h) {
		return ErrMismatchedEdges
	}
	idx := sort.SearchFloat64s(cs.keys, key)
	cs.keys = append(cs.keys, 0)
	copy(cs.keys[idx+1:], cs.keys[idx:])
	cs.keys[idx] = key
	cs.curves = append(cs.curves, nil)
	copy(cs.curves[idx+1:], cs.curves[idx:])
	cs.curves[idx] = h.Clone()
	return nil
}

// Len returns the number of reference curves.
func (cs *CurveSet) Len() int { return len(cs.keys) }

// Keys returns the sorted keys.
func (cs *CurveSet) Keys() []float64 { return append([]float64(nil), cs.keys...) }

// At returns the normalized fractions of the curve stored at key, or nil if
// the key has no exact entry.
func (cs *CurveSet) At(key float64) []float64 {
	for i, k := range cs.keys {
		if k == key {
			return cs.curves[i].Normalize()
		}
	}
	return nil
}

// Interpolate produces the normalized per-bin fractions for the target key.
// If the target lies within the observed key range, each bin is piecewise-
// linearly interpolated between the bracketing curves; if it lies outside,
// each bin is linearly extrapolated from the two nearest curves. Negative
// extrapolated values are clamped to zero before renormalization.
func (cs *CurveSet) Interpolate(target float64) ([]float64, error) {
	if len(cs.curves) == 0 {
		return nil, ErrEmptyCurveSet
	}
	if len(cs.curves) == 1 {
		return cs.curves[0].Normalize(), nil
	}
	fractions := make([][]float64, len(cs.curves))
	for i, c := range cs.curves {
		fractions[i] = c.Normalize()
	}
	nbins := len(fractions[0])
	out := make([]float64, nbins)

	// Identify bracketing or edge reference indices.
	loIdx, hiIdx := cs.bracket(target)
	for b := 0; b < nbins; b++ {
		x0, x1 := cs.keys[loIdx], cs.keys[hiIdx]
		y0, y1 := fractions[loIdx][b], fractions[hiIdx][b]
		var v float64
		if x1 == x0 {
			v = y0
		} else {
			// Same formula covers interpolation and linear extrapolation.
			v = y0 + (y1-y0)*(target-x0)/(x1-x0)
		}
		if v < 0 {
			v = 0
		}
		out[b] = v
	}
	normalize(out)
	return out, nil
}

// InterpolateHistogram is like Interpolate but returns the result as a
// histogram sharing the set's bin edges, scaled to the given total mass.
func (cs *CurveSet) InterpolateHistogram(target, totalMass float64) (*stats.Histogram, error) {
	fracs, err := cs.Interpolate(target)
	if err != nil {
		return nil, err
	}
	h := stats.NewHistogram(cs.curves[0].Edges)
	for i, f := range fracs {
		h.Counts[i] = f * totalMass
	}
	return h, nil
}

// IsExtrapolation reports whether the target key lies outside the observed
// key range (the paper's "E" cases in Table 5).
func (cs *CurveSet) IsExtrapolation(target float64) bool {
	if len(cs.keys) == 0 {
		return true
	}
	return target < cs.keys[0] || target > cs.keys[len(cs.keys)-1]
}

// bracket returns indices of the two reference curves used for the target:
// the bracketing pair for interpolation, or the two nearest curves on the
// same side for extrapolation.
func (cs *CurveSet) bracket(target float64) (lo, hi int) {
	n := len(cs.keys)
	if target <= cs.keys[0] {
		return 0, 1
	}
	if target >= cs.keys[n-1] {
		return n - 2, n - 1
	}
	idx := sort.SearchFloat64s(cs.keys, target)
	if idx == 0 {
		return 0, 1
	}
	return idx - 1, idx
}

func normalize(xs []float64) {
	total := 0.0
	for _, v := range xs {
		total += v
	}
	if total == 0 {
		return
	}
	for i := range xs {
		xs[i] /= total
	}
}
