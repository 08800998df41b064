package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 4, 8})
	h.Add(0)   // bin 0
	h.Add(0.5) // bin 0
	h.Add(1)   // bin 1
	h.Add(3)   // bin 2
	h.Add(7.9) // bin 3
	h.Add(100) // clamped into last bin
	want := []float64{2, 1, 1, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %g, want %g", i, h.Counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %g, want 6", h.Total())
	}
}

func TestHistogramValueBelowFirstEdge(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	h.Add(5)
	if h.Counts[0] != 1 {
		t.Errorf("value below first edge should land in bin 0, got %v", h.Counts)
	}
}

func TestPowerOfTwoEdges(t *testing.T) {
	edges := PowerOfTwoEdges(4)
	want := []float64{0, 1, 2, 4, 8, 16}
	if len(edges) != len(want) {
		t.Fatalf("edges %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges %v, want %v", edges, want)
		}
	}
}

func TestHistogramNormalizeAndCDF(t *testing.T) {
	h := NewPowerOfTwoHistogram(10)
	for _, v := range []float64{1, 2, 4, 8, 16, 1000} {
		h.Add(v)
	}
	fracs := h.Normalize()
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("normalized fractions sum to %g", sum)
	}
	cdf := h.CDF()
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Errorf("CDF should end at 1, got %g", cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Fatalf("CDF decreasing at bin %d", i)
		}
	}
}

func TestHistogramEmptyNormalize(t *testing.T) {
	h := NewPowerOfTwoHistogram(5)
	for _, f := range h.Normalize() {
		if f != 0 {
			t.Fatal("empty histogram should normalize to zeros")
		}
	}
}

func TestHistogramWeighted(t *testing.T) {
	h := NewHistogram([]float64{0, 10, 20})
	h.AddWeighted(5, 100)
	h.AddWeighted(15, 300)
	if h.Counts[0] != 100 || h.Counts[1] != 300 {
		t.Errorf("weighted counts %v", h.Counts)
	}
}

func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2})
	h.Add(0.5)
	c := h.Clone()
	c.Add(1.5)
	if h.Counts[1] != 0 {
		t.Error("mutating a clone changed the original")
	}
}

func TestHistogramResetKeepsEdges(t *testing.T) {
	h := NewPowerOfTwoHistogram(4)
	for _, v := range []float64{0, 3, 9, 100} {
		h.Add(v)
	}
	h.Reset()
	if h.Total() != 0 {
		t.Errorf("total after Reset = %g, want 0", h.Total())
	}
	if h.Bins() != 5 || !SameEdges(h, NewPowerOfTwoHistogram(4)) {
		t.Errorf("Reset changed the bins: %v", h.Edges)
	}
}

func TestHistogramBinLabelsAndString(t *testing.T) {
	h := NewPowerOfTwoHistogram(12)
	h.Add(0.5)
	h.AddWeighted(3000, 3)
	if got := h.BinLabel(h.Bins() - 1); got != "2K" {
		t.Errorf("last bin label %q, want 2K", got)
	}
	if h.BinLabel(-1) != "?" || h.BinLabel(h.Bins()) != "?" {
		t.Error("out-of-range bins should be labelled ?")
	}
	if got := h.String(); got != "0:0.2500 2K:0.7500" {
		t.Errorf("String() = %q", got)
	}
}

func TestUnitEdges(t *testing.T) {
	h := NewHistogram(UnitEdges(3))
	if h.Bins() != 3 {
		t.Fatalf("UnitEdges(3) gives %d bins, want 3", h.Bins())
	}
	for _, depth := range []float64{0, 1, 1, 2, 7} {
		h.Add(depth)
	}
	if want := []float64{1, 2, 2}; h.Counts[0] != want[0] || h.Counts[1] != want[1] || h.Counts[2] != want[2] {
		t.Errorf("depth counts %v, want %v", h.Counts, want)
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	for _, edges := range [][]float64{{1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for edges %v", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		0:          "0",
		8:          "8",
		2048:       "2K",
		512 * 1024: "512K",
		512 << 20:  "512M",
		64 << 30:   "64G",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestSameEdges(t *testing.T) {
	a := NewPowerOfTwoHistogram(8)
	b := NewPowerOfTwoHistogram(8)
	c := NewPowerOfTwoHistogram(9)
	if !SameEdges(a, b) {
		t.Error("identical edge sets reported different")
	}
	if SameEdges(a, c) {
		t.Error("different edge sets reported same")
	}
}

// Property: for any set of non-negative samples, the histogram total equals
// the sample count and the CDF is within [0,1].
func TestQuickHistogramInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewPowerOfTwoHistogram(20)
		n := 0
		for _, v := range raw {
			v = math.Abs(v)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		if h.Total() != float64(n) {
			return false
		}
		for _, c := range h.CDF() {
			if c < -1e-12 || c > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %g, want 5", Mean(xs))
	}
	if Sum(xs) != 40 {
		t.Errorf("Sum = %g, want 40", Sum(xs))
	}
	if math.Abs(Variance(xs)-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %g, want %g", Variance(xs), 32.0/7.0)
	}
	if math.Abs(StdDev(xs)-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %g", StdDev(xs))
	}
	if Median(xs) != 4.5 {
		t.Errorf("Median = %g, want 4.5", Median(xs))
	}
}

func TestMomentsEmptyAndDegenerate(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one value should be NaN")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Errorf("Quantile(0.5) = %g, want 2.5", q)
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Error("extreme quantiles should be min and max")
	}
}
