package interp

import (
	"math"
	"testing"

	"impressions/internal/stats"
)

// buildCurve returns a 4-bin histogram whose first bin fraction is p and the
// rest share the remainder equally.
func buildCurve(p float64) *stats.Histogram {
	h := stats.NewHistogram([]float64{0, 1, 2, 3, 4})
	h.Counts[0] = p * 1000
	rest := (1 - p) * 1000 / 3
	for i := 1; i < 4; i++ {
		h.Counts[i] = rest
	}
	return h
}

func TestCurveSetInterpolateMidpoint(t *testing.T) {
	cs := NewCurveSet()
	if err := cs.Add(10, buildCurve(0.2)); err != nil {
		t.Fatal(err)
	}
	if err := cs.Add(30, buildCurve(0.6)); err != nil {
		t.Fatal(err)
	}
	fracs, err := cs.Interpolate(20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fracs[0]-0.4) > 1e-9 {
		t.Errorf("interpolated first bin %.4f, want 0.4", fracs[0])
	}
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("interpolated curve sums to %g", sum)
	}
}

func TestCurveSetExtrapolation(t *testing.T) {
	cs := NewCurveSet()
	_ = cs.Add(10, buildCurve(0.2))
	_ = cs.Add(20, buildCurve(0.3))
	if !cs.IsExtrapolation(40) {
		t.Error("40 should be an extrapolation")
	}
	if cs.IsExtrapolation(15) {
		t.Error("15 should be an interpolation")
	}
	fracs, err := cs.Interpolate(40)
	if err != nil {
		t.Fatal(err)
	}
	// Linear trend: 0.2 at 10, 0.3 at 20 → 0.5 at 40.
	if math.Abs(fracs[0]-0.5) > 1e-9 {
		t.Errorf("extrapolated first bin %.4f, want 0.5", fracs[0])
	}
}

func TestCurveSetExtrapolationClampsNegative(t *testing.T) {
	cs := NewCurveSet()
	_ = cs.Add(10, buildCurve(0.4))
	_ = cs.Add(20, buildCurve(0.1))
	fracs, err := cs.Interpolate(60)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fracs {
		if f < 0 {
			t.Errorf("bin %d extrapolated negative: %g", i, f)
		}
	}
}

func TestCurveSetSingleReference(t *testing.T) {
	cs := NewCurveSet()
	_ = cs.Add(50, buildCurve(0.25))
	fracs, err := cs.Interpolate(75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fracs[0]-0.25) > 1e-9 {
		t.Errorf("single-curve interpolation should return that curve, got %.4f", fracs[0])
	}
}

func TestCurveSetErrors(t *testing.T) {
	cs := NewCurveSet()
	if _, err := cs.Interpolate(10); err == nil {
		t.Error("expected error for empty curve set")
	}
	_ = cs.Add(10, buildCurve(0.5))
	other := stats.NewHistogram([]float64{0, 10, 20})
	if err := cs.Add(20, other); err == nil {
		t.Error("expected mismatched-edges error")
	}
}

func TestCurveSetLenAndRange(t *testing.T) {
	cs := NewCurveSet()
	if cs.Len() != 0 || !cs.IsExtrapolation(10) {
		t.Error("an empty curve set has no range, so every key extrapolates")
	}
	_ = cs.Add(20, buildCurve(0.3))
	_ = cs.Add(10, buildCurve(0.2))
	if cs.Len() != 2 {
		t.Errorf("Len() = %d, want 2", cs.Len())
	}
	for key, want := range map[float64]bool{5: true, 10: false, 15: false, 20: false, 25: true} {
		if got := cs.IsExtrapolation(key); got != want {
			t.Errorf("IsExtrapolation(%g) = %v, want %v", key, got, want)
		}
	}
}

func TestCurveSetAtAndKeys(t *testing.T) {
	cs := NewCurveSet()
	_ = cs.Add(30, buildCurve(0.6))
	_ = cs.Add(10, buildCurve(0.2))
	keys := cs.Keys()
	if len(keys) != 2 || keys[0] != 10 || keys[1] != 30 {
		t.Errorf("keys not sorted: %v", keys)
	}
	at := cs.At(10)
	if at == nil || math.Abs(at[0]-0.2) > 1e-9 {
		t.Errorf("At(10) = %v", at)
	}
	if cs.At(99) != nil {
		t.Error("At(unknown key) should be nil")
	}
}

func TestInterpolateHistogramScaling(t *testing.T) {
	cs := NewCurveSet()
	_ = cs.Add(10, buildCurve(0.2))
	_ = cs.Add(30, buildCurve(0.6))
	h, err := cs.InterpolateHistogram(20, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Total()-500) > 1e-6 {
		t.Errorf("interpolated histogram total %g, want 500", h.Total())
	}
}
