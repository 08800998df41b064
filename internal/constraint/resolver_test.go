package constraint

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

// paperDist is the file-size distribution used in the paper's constraint
// examples (§3.4, Figure 3, Table 4): lognormal(µ=8.16, σ=2.46).
//
// Note on units: with these parameters the expected sum of 1000 samples is
// about 72 million, so the paper's literal 30000/60000/90000-byte targets are
// unreachable; the reproduction keeps the distribution and expresses targets
// as {0.5, 1.0, 1.5} times the expected sum, preserving the structure of the
// paper's experiment: targets below, at and above what the distribution
// gives unaided.
func paperDist() stats.Distribution { return stats.NewLognormal(8.16, 2.46) }

// expectedSum returns n times the distribution's mean, the "expected sum" the
// paper's Table 4 references.
func expectedSum(n int) float64 { return float64(n) * paperDist().Mean() }

func TestResolveMatchingTargetConverges(t *testing.T) {
	rng := stats.NewRNG(1)
	r := NewResolver(rng)
	// Ask for exactly the expected sum; the resolver should converge with
	// little oversampling.
	res, err := r.Resolve(Problem{N: 1000, TargetSum: expectedSum(1000), Dist: paperDist()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence for a target near the expected sum")
	}
	if len(res.Values) != 1000 {
		t.Fatalf("got %d values, want exactly 1000", len(res.Values))
	}
	if res.FinalBeta > 0.05 {
		t.Errorf("final beta %.4f exceeds 0.05", res.FinalBeta)
	}
	sum := stats.Sum(res.Values)
	if math.Abs(sum-res.Sum) > 1e-6 {
		t.Errorf("reported sum %.1f does not match actual %.1f", res.Sum, sum)
	}
}

func TestResolveLowAndHighTargets(t *testing.T) {
	// The paper's Table 4 evaluates targets at 0.5x, 1.0x and 1.5x the
	// expected sum for 1000 files; all should converge most of the time.
	for _, factor := range []float64{0.5, 1.0, 1.5} {
		target := factor * expectedSum(1000)
		rng := stats.NewRNG(42)
		r := NewResolver(rng)
		res, err := r.Resolve(Problem{N: 1000, TargetSum: target, Dist: paperDist()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("target %.2fx did not converge", factor)
			continue
		}
		if res.FinalBeta > 0.05 {
			t.Errorf("target %.2fx: final beta %.4f > 0.05", factor, res.FinalBeta)
		}
		if len(res.Values) != 1000 {
			t.Errorf("target %.2fx: %d values", factor, len(res.Values))
		}
	}
}

func TestResolvePreservesDistribution(t *testing.T) {
	rng := stats.NewRNG(7)
	r := NewResolver(rng)
	res, err := r.Resolve(Problem{N: 1000, TargetSum: 1.5 * expectedSum(1000), Dist: paperDist()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("this seed did not converge; distribution check not applicable")
	}
	if !res.KS.Passed {
		t.Errorf("K-S test failed: D=%.4f > critical %.4f", res.KS.D, res.KS.Critical)
	}
	if res.KS.D > 0.1 {
		t.Errorf("K-S D statistic %.4f unexpectedly large", res.KS.D)
	}
}

func TestResolveOversampleRateIsSmall(t *testing.T) {
	rng := stats.NewRNG(11)
	r := NewResolver(rng)
	res, err := r.Resolve(Problem{N: 1000, TargetSum: expectedSum(1000), Dist: paperDist()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence")
	}
	// The paper reports ~5% average oversampling for the matched-target case.
	if res.OversampleRate > 0.5 {
		t.Errorf("oversample rate %.2f unexpectedly high", res.OversampleRate)
	}
}

func TestResolveRecordsTrace(t *testing.T) {
	rng := stats.NewRNG(3)
	r := NewResolver(rng)
	r.RecordConvergence(true)
	res, err := r.Resolve(Problem{N: 500, TargetSum: 1.2 * expectedSum(500), Dist: paperDist()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("expected a convergence trace")
	}
	if res.Trace[0] <= 0 {
		t.Errorf("trace starts at %.1f, want the initial sample sum", res.Trace[0])
	}
}

func TestResolveErrors(t *testing.T) {
	r := NewResolver(stats.NewRNG(1))
	if _, err := r.Resolve(Problem{N: 10, TargetSum: 100}); err == nil {
		t.Error("expected error for missing distribution")
	}
	if _, err := r.Resolve(Problem{N: 0, TargetSum: 100, Dist: paperDist()}); err == nil {
		t.Error("expected error for zero N")
	}
	for _, target := range []float64{-1, math.NaN()} {
		if _, err := r.Resolve(Problem{N: 10, TargetSum: target, Dist: paperDist()}); err == nil {
			t.Errorf("expected error for target sum %v", target)
		}
	}
}

func TestResolveImpossibleTargetFailsGracefully(t *testing.T) {
	// A target orders of magnitude above anything achievable should be
	// reported as non-converged, not hang or panic.
	rng := stats.NewRNG(5)
	r := NewResolver(rng)
	res, err := r.Resolve(Problem{
		N: 100, TargetSum: 1e15, Dist: stats.NewLognormal(2, 0.5),
		MaxRestarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("impossible target reported as converged")
	}
}

func TestResolveSkipLocalImprovementStillBounded(t *testing.T) {
	rng := stats.NewRNG(9)
	r := NewResolver(rng)
	res, err := r.Resolve(Problem{
		N: 500, TargetSum: 0.9 * expectedSum(500), Dist: paperDist(),
		SkipLocalImprovement: true, MaxRestarts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without local improvement convergence is much rarer (that is the point
	// of the ablation); we only require a well-formed result.
	if res.Converged && len(res.Values) != 500 {
		t.Errorf("converged with %d values, want 500", len(res.Values))
	}
}

func TestResolveInitialBetaReported(t *testing.T) {
	rng := stats.NewRNG(21)
	r := NewResolver(rng)
	res, err := r.Resolve(Problem{N: 1000, TargetSum: 1.5 * expectedSum(1000), Dist: paperDist()})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialBeta <= 0 {
		t.Errorf("initial beta %.4f should be positive for a 1.5x target", res.InitialBeta)
	}
	// When the initial draw misses the tolerance band, resolution must have
	// improved the error; when it already satisfies the constraint the betas
	// are equal by definition.
	if res.Converged && res.InitialBeta > 0.05 && res.FinalBeta >= res.InitialBeta {
		t.Errorf("final beta %.4f should improve on initial %.4f", res.FinalBeta, res.InitialBeta)
	}
}

func TestBoundSums(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	min, max := boundSums(sorted, 2)
	if min != 3 || max != 9 {
		t.Errorf("boundSums = %g,%g, want 3,9", min, max)
	}
	min, max = boundSums(sorted, 10)
	if min != 15 || max != 15 {
		t.Errorf("boundSums with n>len = %g,%g, want 15,15", min, max)
	}
}

func TestBoundsTrackerMatchesBoundSums(t *testing.T) {
	rng := stats.NewRNG(3)
	pool := stats.SampleN(paperDist(), rng, 100)
	tracker := newBoundsTracker(pool, 100)
	all := append([]float64(nil), pool...)
	for i := 0; i < 500; i++ {
		v := paperDist().Sample(rng)
		all = append(all, v)
		tracker.add(v)
	}
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	wantMin, wantMax := boundSums(sorted, 100)
	if math.Abs(tracker.minSum-wantMin) > 1e-6*wantMin || math.Abs(tracker.maxSum-wantMax) > 1e-6*wantMax {
		t.Fatalf("tracker bounds (%g, %g) diverge from boundSums (%g, %g)",
			tracker.minSum, tracker.maxSum, wantMin, wantMax)
	}
}

// TestRecordedConvergenceMatchesUnrecorded: recording the convergence path
// must not steer it. Whatever the target's position (far above reach, just
// above, inside or below), a resolver with RecordConvergence(true) returns
// the same Result as one without, the Trace aside, and leaves its RNG at the
// same draw.
func TestRecordedConvergenceMatchesUnrecorded(t *testing.T) {
	signed := stats.NewEmpirical([]float64{-40, -5, 0, 3, 12, 30, 75}, "signed")
	heavy := stats.NewHybrid(stats.NewLognormal(9.48, 2.46), stats.NewPareto(0.91, 512<<20), 0.999).WithCap(8 << 30)
	for name, dist := range map[string]stats.Distribution{"lognormal": paperDist(), "heavy tail": heavy, "signed": signed} {
		mean := dist.Mean()
		for _, factor := range []float64{0.001, 0.5, 1, 1.6, 2.0, 2.2, 2.4, 2.8, 4, 50} {
			for seed := int64(1); seed <= 6; seed++ {
				p := Problem{N: 300, TargetSum: factor * 300 * mean, Dist: dist, MaxRestarts: 3, SkipKS: name == "signed"}
				plainRNG, recordedRNG := stats.NewRNG(seed), stats.NewRNG(seed)
				plain, err := NewResolver(plainRNG).Resolve(p)
				if err != nil {
					t.Fatal(err)
				}
				recording := NewResolver(recordedRNG)
				recording.RecordConvergence(true)
				recorded, err := recording.Resolve(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(recorded.Trace) == 0 {
					t.Errorf("%s, target %g x mean, seed %d: recording resolver left no trace", name, factor, seed)
				}
				recorded.Trace = nil
				if !reflect.DeepEqual(plain, recorded) {
					t.Errorf("%s, target %g x mean, seed %d: unrecorded resolver returned\n%+v\nrecorded\n%+v", name, factor, seed, plain, recorded)
				}
				if plainRNG.Uint64() != recordedRNG.Uint64() {
					t.Errorf("%s, target %g x mean, seed %d: the resolvers left their RNGs at different draws", name, factor, seed)
				}
			}
		}
	}
}

func TestSuccessivePoolDrawsAreFresh(t *testing.T) {
	// Restarts and repeated Resolve calls on one Resolver must redraw fresh
	// initial pools: the restart mechanism exists to replace an unlucky draw.
	r := NewResolver(stats.NewRNG(9))
	a, b := make(heapPool, 50), make(heapPool, 50)
	for _, pool := range []heapPool{a, b} {
		if _, err := r.samplePool(paperDist(), 50, pool); err != nil {
			t.Fatal(err)
		}
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("successive pool draws were identical; restarts cannot replace an unlucky draw")
	}
}

// Property: whenever the resolver converges it returns exactly N values, all
// positive, whose sum is within beta of the target.
func TestQuickResolverInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		r := NewResolver(rng)
		// Target drawn near the expected sum so most trials converge.
		target := expectedSum(200)
		res, err := r.Resolve(Problem{N: 200, TargetSum: target, Dist: paperDist(), MaxRestarts: 3})
		if err != nil {
			return false
		}
		if !res.Converged {
			return true // non-convergence is allowed; invariants only apply on success
		}
		if len(res.Values) != 200 {
			return false
		}
		sum := 0.0
		for _, v := range res.Values {
			if v <= 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-target)/target <= 0.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
