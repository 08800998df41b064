package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependentButDeterministic(t *testing.T) {
	a := NewRNG(42).Fork("namespace")
	b := NewRNG(42).Fork("namespace")
	c := NewRNG(42).Fork("sizes")
	if a.Float64() != b.Float64() {
		t.Error("identical forks should produce identical streams")
	}
	aVals := make([]float64, 10)
	cVals := make([]float64, 10)
	for i := range aVals {
		aVals[i] = a.Float64()
		cVals[i] = c.Float64()
	}
	same := true
	for i := range aVals {
		if aVals[i] != cVals[i] {
			same = false
		}
	}
	if same {
		t.Error("differently labeled forks produced identical streams")
	}
}

func TestRNGBool(t *testing.T) {
	rng := NewRNG(1)
	if rng.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !rng.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if rng.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("Bool(0.3) frequency %.3f too far from 0.3", frac)
	}
}

func TestLognormalMoments(t *testing.T) {
	l := NewLognormal(2, 0.5)
	wantMean := math.Exp(2 + 0.125)
	if math.Abs(l.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean() = %g, want %g", l.Mean(), wantMean)
	}
	if math.Abs(l.Median()-math.Exp(2)) > 1e-9 {
		t.Errorf("Median() = %g, want %g", l.Median(), math.Exp(2))
	}
	rng := NewRNG(7)
	samples := SampleN(l, rng, 200000)
	if m := Mean(samples); math.Abs(m-wantMean)/wantMean > 0.02 {
		t.Errorf("sample mean %g too far from %g", m, wantMean)
	}
}

func TestLognormalCDFQuantileInverse(t *testing.T) {
	l := NewLognormal(9.48, 2.46)
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := l.Quantile(p)
		back := l.CDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
	if l.CDF(0) != 0 {
		t.Error("CDF(0) must be 0")
	}
	if l.CDF(-5) != 0 {
		t.Error("CDF(negative) must be 0")
	}
}

func TestLognormalVarianceMatchesSamples(t *testing.T) {
	l := NewLognormal(2, 0.5)
	want := (math.Exp(0.25) - 1) * math.Exp(4.25)
	if math.Abs(l.Variance()-want) > 1e-9*want {
		t.Errorf("Variance() = %g, want %g", l.Variance(), want)
	}
	samples := SampleN(l, NewRNG(7), 200000)
	if v := Variance(samples); math.Abs(v-want)/want > 0.05 {
		t.Errorf("sample variance %g too far from %g", v, want)
	}
}

func TestLognormalPDFIsCDFDerivative(t *testing.T) {
	l := NewLognormal(9.48, 2.46)
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		x := l.Quantile(p)
		h := x * 1e-5
		slope := (l.CDF(x+h) - l.CDF(x-h)) / (2 * h)
		if math.Abs(slope-l.PDF(x)) > 1e-4*l.PDF(x) {
			t.Errorf("PDF(%g) = %g, CDF slope %g", x, l.PDF(x), slope)
		}
	}
	if l.PDF(0) != 0 || l.PDF(-1) != 0 {
		t.Error("PDF outside the support must be 0")
	}
}

func TestLognormalPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sigma <= 0")
		}
	}()
	NewLognormal(1, 0)
}

func TestNormQuantileRoundTrip(t *testing.T) {
	normCDF := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	for _, p := range []float64{0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999} {
		x := normQuantile(p)
		if math.Abs(normCDF(x)-p) > 1e-8 {
			t.Errorf("normCDF(normQuantile(%g)) = %g", p, normCDF(x))
		}
	}
	if normQuantile(0.5) != 0 && math.Abs(normQuantile(0.5)) > 1e-12 {
		t.Errorf("normQuantile(0.5) = %g, want 0", normQuantile(0.5))
	}
}

func TestParetoSampleAboveXm(t *testing.T) {
	p := NewPareto(0.91, 512)
	rng := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := p.Sample(rng); v < 512 {
			t.Fatalf("pareto sample %g below Xm", v)
		}
	}
}

func TestParetoCDFQuantile(t *testing.T) {
	p := NewPareto(2, 10)
	if p.CDF(5) != 0 {
		t.Error("CDF below Xm must be 0")
	}
	if math.Abs(p.CDF(20)-0.75) > 1e-12 {
		t.Errorf("CDF(20) = %g, want 0.75", p.CDF(20))
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := p.CDF(p.Quantile(q)); math.Abs(got-q) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", q, got)
		}
	}
	if !math.IsNaN(NewPareto(0.91, 1).Mean()) {
		t.Error("mean of Pareto with k<=1 should be NaN")
	}
	if math.Abs(NewPareto(2, 10).Mean()-20) > 1e-12 {
		t.Errorf("mean of Pareto(2,10) = %g, want 20", NewPareto(2, 10).Mean())
	}
}

func TestHybridBodyTailSplit(t *testing.T) {
	h := NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512*1024*1024), 0.9)
	rng := NewRNG(11)
	tail := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if h.Sample(rng) >= 512*1024*1024 {
			tail++
		}
	}
	frac := float64(tail) / n
	// ~10% of samples come from the tail (plus a negligible sliver of body
	// samples that exceed 512MB on their own).
	if frac < 0.08 || frac > 0.13 {
		t.Errorf("tail fraction %.4f outside expected band around 0.10", frac)
	}
}

func TestHybridCDFMonotone(t *testing.T) {
	h := NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512*1024*1024), 0.99994)
	prev := -1.0
	for x := 1.0; x < 1e12; x *= 4 {
		c := h.CDF(x)
		if c < prev {
			t.Fatalf("CDF not monotone at %g: %g < %g", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%g) = %g outside [0,1]", x, c)
		}
		prev = c
	}
}

func TestHybridMeanFinite(t *testing.T) {
	h := NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512*1024*1024), 0.99994)
	m := h.Mean()
	if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
		t.Errorf("hybrid mean %g should be positive and finite", m)
	}
}

func TestHybridWithCapBoundsSamples(t *testing.T) {
	const limit = 1 << 30
	h := NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512<<20), 0.5)
	capped := h.WithCap(limit)
	if h.Cap != 0 || capped.Cap != limit {
		t.Fatalf("WithCap should return a capped copy: original cap %g, copy cap %g", h.Cap, capped.Cap)
	}
	rng, uncappedRNG := NewRNG(13), NewRNG(13)
	tail, over := 0, 0
	for i := 0; i < 10000; i++ {
		v := capped.Sample(rng)
		if v > limit {
			t.Fatalf("capped sample %g exceeds cap", v)
		}
		if v >= 512<<20 {
			tail++
		}
		if h.Sample(uncappedRNG) > limit {
			over++
		}
	}
	if tail == 0 {
		t.Error("capped hybrid never drew from its tail")
	}
	if over == 0 {
		t.Error("uncapped hybrid should exceed the cap with this tail")
	}
}

func TestMixtureWeightsNormalized(t *testing.T) {
	m := NewLognormalMixture([]float64{3, 1}, []float64{14.83, 20.93}, []float64{2.35, 1.48})
	total := 0.0
	for _, c := range m.Components {
		total += c.Weight
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("mixture weights sum to %g, want 1", total)
	}
	if math.Abs(m.Components[0].Weight-0.75) > 1e-12 {
		t.Errorf("first weight %g, want 0.75", m.Components[0].Weight)
	}
}

func TestMixtureCDFIsWeightedAverage(t *testing.T) {
	a := NewLognormal(1, 1)
	b := NewLognormal(5, 1)
	m := NewMixture(
		MixtureComponent{Weight: 0.3, Dist: a},
		MixtureComponent{Weight: 0.7, Dist: b},
	)
	x := 20.0
	want := 0.3*a.CDF(x) + 0.7*b.CDF(x)
	if math.Abs(m.CDF(x)-want) > 1e-12 {
		t.Errorf("mixture CDF %g, want %g", m.CDF(x), want)
	}
}

func TestMixtureSampleMeanMatches(t *testing.T) {
	m := NewLognormalMixture([]float64{1, 3}, []float64{0, 2}, []float64{0.5, 0.5})
	want := 0.25*math.Exp(0.125) + 0.75*math.Exp(2.125)
	if math.Abs(m.Mean()-want) > 1e-9 {
		t.Errorf("Mean() = %g, want %g", m.Mean(), want)
	}
	if got := Mean(SampleN(m, NewRNG(19), 200000)); math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample mean %g too far from %g", got, want)
	}
}

func TestMixturePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty mixture")
		}
	}()
	NewMixture()
}

func TestPoissonMomentsSmallLambda(t *testing.T) {
	p := NewPoisson(6.49)
	rng := NewRNG(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(p.SampleInt(rng))
	}
	mean := sum / n
	if math.Abs(mean-6.49) > 0.1 {
		t.Errorf("sample mean %g too far from lambda 6.49", mean)
	}
}

func TestPoissonLargeLambdaSampler(t *testing.T) {
	p := NewPoisson(200)
	rng := NewRNG(5)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		s := float64(p.SampleInt(rng))
		sum += s
		sumSq += s * s
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-200) > 2 {
		t.Errorf("PTRS sample mean %g too far from 200", mean)
	}
	if math.Abs(variance-200) > 12 {
		t.Errorf("PTRS sample variance %g too far from 200", variance)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	p := NewPoisson(6.49)
	sum := 0.0
	for k := 0; k < 100; k++ {
		pmf := p.PMF(k)
		if pmf < 0 {
			t.Fatalf("PMF(%d) negative", k)
		}
		sum += pmf
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %g, want 1", sum)
	}
	if p.PMF(-1) != 0 {
		t.Error("PMF of negative k must be 0")
	}
}

func TestInversePolynomialWeights(t *testing.T) {
	ip := NewInversePolynomial(2, 2.36, 100)
	if ip.Weight(0) <= ip.Weight(10) {
		t.Error("weight should decrease with file count")
	}
	// PMF sums to 1 over the truncated support.
	sum := 0.0
	for k := 0; k <= 100; k++ {
		sum += ip.PMF(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %g, want 1", sum)
	}
	rng := NewRNG(17)
	for i := 0; i < 1000; i++ {
		k := ip.SampleInt(rng)
		if k < 0 || k > 100 {
			t.Fatalf("sample %d outside [0,100]", k)
		}
	}
}

func TestInversePolynomialMeanMatchesSamples(t *testing.T) {
	ip := NewInversePolynomial(2, 2.36, 100)
	want := 0.0
	for k := 0; k <= 100; k++ {
		want += float64(k) * ip.PMF(k)
	}
	if math.Abs(ip.Mean()-want) > 1e-9 {
		t.Errorf("Mean() = %g, want %g", ip.Mean(), want)
	}
	rng := NewRNG(29)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(ip.SampleInt(rng))
	}
	if got := sum / n; math.Abs(got-want)/want > 0.03 {
		t.Errorf("sample mean %g too far from %g", got, want)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	z := NewZipf(1.0, 50)
	if z.PMF(1) <= z.PMF(2) {
		t.Error("rank 1 should be more probable than rank 2")
	}
	if z.PMF(0) != 0 || z.PMF(51) != 0 {
		t.Error("PMF outside support must be 0")
	}
	rng := NewRNG(23)
	counts := make([]int, 51)
	for i := 0; i < 50000; i++ {
		counts[z.SampleInt(rng)]++
	}
	if counts[1] <= counts[10] {
		t.Errorf("rank 1 sampled %d times, rank 10 %d times; expected Zipf ordering", counts[1], counts[10])
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	e := NewEmpirical(samples, "test")
	if e.Len() != 5 {
		t.Fatalf("Len = %d", e.Len())
	}
	if e.Mean() != 3 {
		t.Errorf("Mean = %g, want 3", e.Mean())
	}
	if e.CDF(3) != 0.6 {
		t.Errorf("CDF(3) = %g, want 0.6", e.CDF(3))
	}
	if e.CDF(0) != 0 {
		t.Errorf("CDF(0) = %g, want 0", e.CDF(0))
	}
	if e.CDF(10) != 1 {
		t.Errorf("CDF(10) = %g, want 1", e.CDF(10))
	}
	rng := NewRNG(2)
	for i := 0; i < 100; i++ {
		v := e.Sample(rng)
		if v < 1 || v > 5 {
			t.Fatalf("sample %g outside observed range", v)
		}
	}
}

func TestEmpiricalQuantileAndValues(t *testing.T) {
	e := NewEmpirical([]float64{5, 1, 3, 2, 4}, "test")
	for q, want := range map[float64]float64{-1: 1, 0: 1, 0.5: 3, 0.99: 5, 1: 5, 2: 5} {
		if got := e.Quantile(q); got != want {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
		}
	}
	vals := e.Values()
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if vals[i] != want {
			t.Fatalf("Values() = %v, want sorted observations", vals)
		}
	}
	vals[0] = 100
	if e.Quantile(0) != 1 {
		t.Error("Values() must return a copy")
	}
	if e.Name() != "test(n=5)" {
		t.Errorf("Name() = %q", e.Name())
	}
	if NewEmpirical([]float64{1}, "").Name() != "empirical(n=1)" {
		t.Error("an empty label should default to empirical")
	}
}

func TestCategoricalSampling(t *testing.T) {
	c := NewCategorical([]string{"a", "b", "c"}, []float64{1, 2, 7})
	if math.Abs(c.Prob("c")-0.7) > 1e-12 {
		t.Errorf("Prob(c) = %g, want 0.7", c.Prob("c"))
	}
	if c.Prob("zzz") != 0 {
		t.Error("unknown category should have probability 0")
	}
	rng := NewRNG(9)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[c.names[c.SampleIndex(rng)]]++
	}
	if frac := float64(counts["c"]) / n; math.Abs(frac-0.7) > 0.02 {
		t.Errorf("category c frequency %.3f, want ~0.7", frac)
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Error("all categories should be sampled")
	}
}

// Property: every distribution's CDF is monotone non-decreasing and bounded
// in [0,1] over random evaluation points.
func TestQuickCDFMonotoneBounded(t *testing.T) {
	dists := []Distribution{
		NewLognormal(9.48, 2.46),
		NewPareto(0.91, 512),
		NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512*1024*1024), 0.99994),
		NewLognormalMixture([]float64{0.76, 0.24}, []float64{14.83, 20.93}, []float64{2.35, 1.48}),
	}
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if x > y {
			x, y = y, x
		}
		for _, d := range dists {
			cx, cy := d.CDF(x), d.CDF(y)
			if cx < 0 || cx > 1 || cy < 0 || cy > 1 || cx > cy+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: samples from the hybrid model are always positive and finite.
func TestQuickHybridSamplesPositive(t *testing.T) {
	h := NewHybrid(NewLognormal(9.48, 2.46), NewPareto(0.91, 512*1024*1024), 0.99994)
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := h.Sample(rng)
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
