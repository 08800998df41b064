package gof

import (
	"math"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

func TestKSOneSampleUniformFitsUniform(t *testing.T) {
	rng := stats.NewRNG(1)
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = rng.Float64()
	}
	uniformCDF := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	res, err := KSOneSample(sample, uniformCDF, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("uniform sample should pass against uniform CDF (D=%.4f, crit=%.4f)", res.D, res.Critical)
	}
}

func TestKSOneSampleRejectsWrongDistribution(t *testing.T) {
	rng := stats.NewRNG(1)
	l := stats.NewLognormal(5, 1)
	sample := stats.SampleN(l, rng, 2000)
	wrong := stats.NewLognormal(8, 1)
	res, err := KSOneSample(sample, wrong.CDF, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Errorf("lognormal(5) sample should fail against lognormal(8) CDF (D=%.4f)", res.D)
	}
}

func TestKSTwoSampleSameDistribution(t *testing.T) {
	// Seed chosen to avoid the two-sample test's ~5% by-design false-positive
	// rate for same-distribution samples.
	rng := stats.NewRNG(4)
	l := stats.NewLognormal(9.48, 2.46)
	a := stats.SampleN(l, rng, 1500)
	b := stats.SampleN(l, rng, 1500)
	res, err := KSTwoSample(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("same-distribution samples should pass the two-sample K-S test (D=%.4f)", res.D)
	}
}

func TestKSTwoSampleDifferentDistributions(t *testing.T) {
	rng := stats.NewRNG(3)
	a := stats.SampleN(stats.NewLognormal(5, 1), rng, 1500)
	b := stats.SampleN(stats.NewLognormal(9, 1), rng, 1500)
	res, err := KSTwoSample(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Errorf("different distributions should fail the two-sample K-S test (D=%.4f)", res.D)
	}
	if res.PValue > 0.05 {
		t.Errorf("p-value %.4f should be tiny", res.PValue)
	}
}

func TestKSEmptySample(t *testing.T) {
	if _, err := KSOneSample(nil, func(float64) float64 { return 0 }, 0.05); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := KSTwoSample(nil, []float64{1}, 0.05); err == nil {
		t.Error("expected error for empty first sample")
	}
}

// samplerCases pairs each file-size sampler the generator draws from (the
// Table 2 models and a user-supplied empirical set) with the CDF of a nearby
// model that is wrong: a shifted body, a lighter tail, a missing tail or a
// missing mode.
func samplerCases() []struct {
	name  string
	dist  stats.Distribution
	wrong func(float64) float64
} {
	body := stats.NewLognormal(9.48, 2.46)
	observed := stats.NewEmpirical(stats.SampleN(stats.NewLognormal(5, 1), stats.NewRNG(3), 500), "")
	return []struct {
		name  string
		dist  stats.Distribution
		wrong func(float64) float64
	}{
		{"lognormal", body, stats.NewLognormal(9.98, 2.46).CDF},
		{"pareto", stats.NewPareto(0.91, 512<<20), stats.NewPareto(1.3, 512<<20).CDF},
		{"hybrid", stats.NewHybrid(body, stats.NewPareto(0.91, 1<<20), 0.9), body.CDF},
		{"mixture", stats.NewLognormalMixture([]float64{0.76, 0.24}, []float64{14.83, 20.93}, []float64{2.35, 1.48}),
			stats.NewLognormal(14.83, 2.35).CDF},
		{"empirical", observed, func(x float64) float64 { return observed.CDF(x / 1.5) }},
	}
}

func TestKSOneSampleAcceptsEachSampler(t *testing.T) {
	for _, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			sample := stats.SampleN(tc.dist, stats.NewRNG(7), 2000)
			res, err := KSOneSample(sample, tc.dist.CDF, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Errorf("%s sample should pass against its own CDF (D=%.4f, crit=%.4f)", tc.dist.Name(), res.D, res.Critical)
			}
		})
	}
}

func TestKSOneSampleRejectsEachWrongModel(t *testing.T) {
	for _, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			sample := stats.SampleN(tc.dist, stats.NewRNG(7), 2000)
			res, err := KSOneSample(sample, tc.wrong, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if res.Passed {
				t.Errorf("%s sample should fail against the wrong model (D=%.4f, crit=%.4f)", tc.dist.Name(), res.D, res.Critical)
			}
		})
	}
}

func TestKSStatisticCDFs(t *testing.T) {
	a := []float64{0.1, 0.5, 1.0}
	b := []float64{0.2, 0.4, 1.0}
	if d := KSStatisticCDFs(a, b); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("KSStatisticCDFs = %g, want 0.1", d)
	}
}

func TestChiSquareGoodFit(t *testing.T) {
	observed := []float64{98, 105, 99, 101, 97, 100}
	expected := []float64{100, 100, 100, 100, 100, 100}
	res, err := ChiSquare(observed, expected, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("near-identical counts should pass (stat=%.3f, p=%.4f)", res.Statistic, res.PValue)
	}
}

func TestChiSquareBadFit(t *testing.T) {
	observed := []float64{10, 300, 10, 10, 10, 10}
	expected := []float64{58, 58, 58, 58, 58, 60}
	res, err := ChiSquare(observed, expected, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Errorf("wildly different counts should fail (stat=%.3f, p=%.4f)", res.Statistic, res.PValue)
	}
}

func TestChiSquarePoolsSparseBins(t *testing.T) {
	observed := []float64{1, 0, 2, 200, 195}
	expected := []float64{1, 1, 1, 200, 195}
	res, err := ChiSquare(observed, expected, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.DoF >= 4 {
		t.Errorf("sparse bins should have been pooled, dof=%d", res.DoF)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquare([]float64{1}, []float64{1, 2}, 0.05, 5); err == nil {
		t.Error("expected mismatched-bins error")
	}
	if _, err := ChiSquare(nil, nil, 0.05, 5); err == nil {
		t.Error("expected empty error")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// P(X >= 3.841) with 1 dof is 0.05.
	if p := ChiSquareSurvival(3.841, 1); math.Abs(p-0.05) > 0.002 {
		t.Errorf("survival(3.841, 1) = %g, want ~0.05", p)
	}
	// P(X >= 18.307) with 10 dof is 0.05.
	if p := ChiSquareSurvival(18.307, 10); math.Abs(p-0.05) > 0.002 {
		t.Errorf("survival(18.307, 10) = %g, want ~0.05", p)
	}
	if ChiSquareSurvival(0, 5) != 1 {
		t.Error("survival at 0 must be 1")
	}
}

func TestMDCCIdenticalCurvesIsZero(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.4}
	d, err := MDCC(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("MDCC of identical curves = %g, want 0", d)
	}
}

func TestMDCCKnownValue(t *testing.T) {
	gen := []float64{0.5, 0.5, 0, 0}
	des := []float64{0.25, 0.25, 0.25, 0.25}
	d, err := MDCC(gen, des)
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative curves: gen = 0.5,1,1,1 ; des = 0.25,0.5,0.75,1 → max diff 0.5.
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("MDCC = %g, want 0.5", d)
	}
}

func TestMDCCAcceptsRawCounts(t *testing.T) {
	gen := []float64{50, 50, 0, 0}
	des := []float64{25, 25, 25, 25}
	d, err := MDCC(gen, des)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("MDCC with raw counts = %g, want 0.5", d)
	}
}

func TestMDCCErrors(t *testing.T) {
	if _, err := MDCC([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := MDCC(nil, nil); err == nil {
		t.Error("expected empty error")
	}
}

func TestMeanAbsDiff(t *testing.T) {
	d, err := MeanAbsDiff([]float64{1, 2, 3}, []float64{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("MeanAbsDiff = %g, want 1", d)
	}
}

// Property: MDCC is symmetric and bounded in [0,1].
func TestQuickMDCCSymmetricBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Abs(a[i])
			y[i] = math.Abs(b[i])
			if math.IsInf(x[i], 0) || math.IsNaN(x[i]) || math.IsInf(y[i], 0) || math.IsNaN(y[i]) {
				return true
			}
		}
		d1, err1 := MDCC(x, y)
		d2, err2 := MDCC(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
