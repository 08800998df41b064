package bench

import (
	"fmt"
	"io"
	"time"

	"impressions/internal/constraint"
	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/dataset"
	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

// Ablation evaluates the design choices the paper calls out, by disabling
// them one at a time:
//
//   - file-size model: the hybrid lognormal+Pareto model versus a
//     lognormal-only model (§3.3.2: the simpler model misses the second mode
//     of the bytes-by-size curve);
//   - file-depth model: the multiplicative Poisson x mean-bytes model versus
//     Poisson-only placement (bytes-with-depth accuracy degrades);
//   - constraint resolution: oversampling plus subset-sum local improvement
//     versus oversampling alone (§3.4);
//   - content generation: word-popularity-only versus the hybrid word model
//     (§3.6: the hybrid model exists to keep content generation fast).
type Ablation struct{}

// NewAblation returns the ablation experiment.
func NewAblation() Ablation { return Ablation{} }

// Name implements Experiment.
func (Ablation) Name() string { return "ablation" }

// Title implements Experiment.
func (Ablation) Title() string {
	return "Ablations: hybrid size model, multiplicative depth model, subset-sum improvement, word models"
}

// Run implements Experiment.
func (a Ablation) Run(w io.Writer, opts Options) error {
	if err := a.sizeModel(w, opts); err != nil {
		return err
	}
	if err := a.depthModel(w, opts); err != nil {
		return err
	}
	if err := a.constraintResolution(w, opts); err != nil {
		return err
	}
	return a.wordModels(w, opts)
}

// sizeModel compares the hybrid and lognormal-only file-size models on the
// bytes-by-containing-size curve.
func (a Ablation) sizeModel(w io.Writer, opts Options) error {
	samples := 100000
	if opts.Quick {
		samples = 30000
	}
	ds := dataset.Default()
	desired := ds.BytesByFileSize().Normalize()

	measure := func(dist stats.Distribution) (float64, error) {
		rng := stats.NewRNG(opts.Seed).Fork("ablation/size/" + dist.Name())
		h := stats.NewPowerOfTwoHistogram(dataset.SizeMaxExp)
		for i := 0; i < samples; i++ {
			v := dist.Sample(rng)
			h.AddWeighted(v, v)
		}
		return gof.MDCC(h.Normalize(), desired)
	}
	hybridMDCC, err := measure(core.DefaultFileSizeDistribution())
	if err != nil {
		return err
	}
	lognormalOnly, err := measure(stats.NewLognormal(core.DefaultFileSizeMu, core.DefaultFileSizeSigma))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(1) file-size model: MDCC of bytes-by-containing-size vs desired (lower is better)")
	tb := newTable(w)
	tb.row("model", "MDCC")
	tb.row("hybrid lognormal+Pareto (paper)", fmt.Sprintf("%.3f", hybridMDCC))
	tb.row("lognormal only (ablated)", fmt.Sprintf("%.3f", lognormalOnly))
	tb.flush()
	return nil
}

// depthModel compares multiplicative and Poisson-only placement on the
// bytes-with-depth metric.
func (a Ablation) depthModel(w io.Writer, opts Options) error {
	files, dirs := 8000, 1600
	if opts.Quick {
		files, dirs = 3000, 600
	}
	measure := func(disableCoupling bool) (float64, error) {
		res, err := core.GenerateImage(core.Config{
			NumFiles:                 files,
			NumDirs:                  dirs,
			Seed:                     opts.Seed,
			DisableSizeDepthCoupling: disableCoupling,
		})
		if err != nil {
			return 0, err
		}
		acc := core.MeasureAccuracy(res.Image)
		return acc.BytesWithDepthMB, nil
	}
	multiplicative, err := measure(false)
	if err != nil {
		return err
	}
	poissonOnly, err := measure(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(2) file-depth model: mean |difference| in bytes per file vs desired, by depth (MB, lower is better)")
	tb := newTable(w)
	tb.row("model", "mean |diff| MB")
	tb.row("multiplicative Poisson x mean-bytes (paper)", fmt.Sprintf("%.3f", multiplicative))
	tb.row("Poisson only (ablated)", fmt.Sprintf("%.3f", poissonOnly))
	tb.flush()
	return nil
}

// constraintResolution compares the full resolver against oversampling-only.
func (a Ablation) constraintResolution(w io.Writer, opts Options) error {
	trials := 10
	if opts.Quick {
		trials = 4
	}
	const n = 1000
	target := 1.5 * constraintExpectedSum(n)

	measure := func(skipImprovement bool) (successRate, avgAlpha float64, err error) {
		var successes int
		var alphas []float64
		for trial := 0; trial < trials; trial++ {
			rng := stats.NewRNG(opts.Seed).Fork("constraint-ablation").SplitN(uint64(trial))
			r := constraint.NewResolver(rng)
			res, err := r.Resolve(constraint.Problem{
				N: n, TargetSum: target, Dist: constraintDist(),
				SkipLocalImprovement: skipImprovement, MaxRestarts: 3,
			})
			if err != nil {
				return 0, 0, err
			}
			if res.Converged {
				successes++
				alphas = append(alphas, res.OversampleRate)
			}
		}
		return float64(successes) / float64(trials), meanOrZero(alphas), nil
	}
	fullRate, fullAlpha, err := measure(false)
	if err != nil {
		return err
	}
	plainRate, plainAlpha, err := measure(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(3) constraint resolution on the hard 1.5x target: success rate and oversampling")
	tb := newTable(w)
	tb.row("resolver", "success rate", "avg oversampling")
	tb.row("oversampling + subset-sum improvement (paper)", fmt.Sprintf("%.0f%%", fullRate*100), fmt.Sprintf("%.1f%%", fullAlpha*100))
	tb.row("oversampling only (ablated)", fmt.Sprintf("%.0f%%", plainRate*100), fmt.Sprintf("%.1f%%", plainAlpha*100))
	tb.flush()
	return nil
}

// wordModels compares content-generation throughput of the word-popularity
// model alone against the hybrid model.
func (a Ablation) wordModels(w io.Writer, opts Options) error {
	bytes := int64(64 << 20)
	if opts.Quick {
		bytes = 8 << 20
	}
	measure := func(model content.WordModel) (float64, error) {
		gen := content.NewTextGenerator(model)
		rng := stats.NewRNG(opts.Seed).Fork("ablation/words/" + model.Name())
		var cw content.CountingWriter
		start := time.Now()
		if err := gen.Generate(&cw, bytes, rng); err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		return float64(bytes) / (1 << 20) / secs, nil
	}
	popularity, err := measure(content.NewPopularityModel(1.0))
	if err != nil {
		return err
	}
	hybrid, err := measure(content.NewHybridModel(0.2))
	if err != nil {
		return err
	}
	single, err := measure(content.NewSingleWordModel(""))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(4) content generation throughput (MB/s, higher is better)")
	tb := newTable(w)
	tb.row("word model", "MB/s")
	tb.row("single word", fmt.Sprintf("%.1f", single))
	tb.row("word popularity only", fmt.Sprintf("%.1f", popularity))
	tb.row("hybrid popularity + word-length (paper)", fmt.Sprintf("%.1f", hybrid))
	tb.flush()
	return nil
}
