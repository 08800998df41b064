package bench

import (
	"fmt"
	"io"

	"impressions/internal/constraint"
	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

// constraintDist is the file-size distribution of the paper's §3.4 example:
// lognormal(µ=8.16, σ=2.46).
//
// Unit note: with these parameters the expected sum of 1000 samples is about
// 72 million, so the paper's literal 30000/60000/90000-byte targets cannot be
// reproduced in byte units; the experiments below keep the paper's
// distribution and express the three targets as {0.5, 1.0, 1.5} times the
// expected sum, which preserves the structure of Figure 3 and Table 4 (a low
// target, a matched target, and a high target that is hardest to reach).
func constraintDist() stats.Distribution { return stats.NewLognormal(8.16, 2.46) }

func constraintExpectedSum(n int) float64 { return float64(n) * constraintDist().Mean() }

// Fig3 reproduces Figure 3: the convergence of the multiple-constraint
// resolver for 1000 file sizes towards the high (1.5x) target, and the
// agreement between the original and constrained distributions (by count and
// by bytes) for a successful trial.
type Fig3 struct{}

// NewFig3 returns the Figure 3 experiment.
func NewFig3() Fig3 { return Fig3{} }

// Name implements Experiment.
func (Fig3) Name() string { return "fig3" }

// Title implements Experiment.
func (Fig3) Title() string {
	return "Figure 3: resolving multiple constraints (convergence and accuracy)"
}

// Run implements Experiment.
func (f Fig3) Run(w io.Writer, opts Options) error {
	n := 1000
	trials := 5
	if opts.Quick {
		trials = 3
	}
	target := 1.5 * constraintExpectedSum(n)

	fmt.Fprintf(w, "(a) convergence of the sum of %d file sizes to the 1.5x target (%.3g)\n", n, target)
	tb := newTable(w)
	tb.row("trial", "initial sum", "final sum", "oversamples", "final beta", "converged")

	var lastSuccess *constraint.Result
	for trial := 0; trial < trials; trial++ {
		rng := stats.NewRNG(opts.Seed).Fork("fig3-trials").SplitN(uint64(trial))
		resolver := constraint.NewResolver(rng)
		resolver.RecordConvergence(true)
		res, err := resolver.Resolve(constraint.Problem{
			N: n, TargetSum: target, Dist: constraintDist(),
		})
		if err != nil {
			return err
		}
		initial := target
		if len(res.Trace) > 0 {
			initial = res.Trace[0]
		}
		tb.row(trial, fmt.Sprintf("%.4g", initial), fmt.Sprintf("%.4g", res.Sum),
			res.Oversamples, fmt.Sprintf("%.3f", res.FinalBeta), res.Converged)
		if res.Converged {
			r := res
			lastSuccess = &r
		}
	}
	tb.flush()

	if lastSuccess == nil {
		fmt.Fprintln(w, "(b)/(c) skipped: no trial converged")
		return nil
	}

	// (b) and (c): original vs constrained distributions for a successful
	// trial, by file count and by bytes.
	rng := stats.NewRNG(opts.Seed).Fork("fig3-original")
	original := stats.SampleN(constraintDist(), rng, n)

	origCount := stats.NewPowerOfTwoHistogram(24)
	consCount := stats.NewPowerOfTwoHistogram(24)
	origBytes := stats.NewPowerOfTwoHistogram(24)
	consBytes := stats.NewPowerOfTwoHistogram(24)
	for _, v := range original {
		origCount.Add(v)
		origBytes.AddWeighted(v, v)
	}
	for _, v := range lastSuccess.Values {
		consCount.Add(v)
		consBytes.AddWeighted(v, v)
	}
	fmt.Fprintln(w, "(b) original (O) vs constrained (C) distribution of files by size")
	printSizeSeries(w, "O", origCount, "C", consCount, 1e-3)
	fmt.Fprintln(w, "(c) original (O) vs constrained (C) distribution of bytes by file size")
	printSizeSeries(w, "O", origBytes, "C", consBytes, 1e-3)
	return nil
}

// Table4 reproduces Table 4: the summary of resolving multiple constraints
// for the low, matched and high targets — average initial and final β,
// average oversampling rate α, the K-S D statistics for the constrained
// sample by count and by bytes, and the success rate over the trials.
type Table4 struct{}

// NewTable4 returns the Table 4 experiment.
func NewTable4() Table4 { return Table4{} }

// Name implements Experiment.
func (Table4) Name() string { return "table4" }

// Title implements Experiment.
func (Table4) Title() string {
	return "Table 4: summary of resolving multiple constraints"
}

// Table4Row is one target's averaged convergence summary.
type Table4Row struct {
	TargetFactor   float64
	TargetSum      float64
	AvgInitialBeta float64
	AvgFinalBeta   float64
	AvgAlpha       float64
	AvgDCount      float64
	AvgDBytes      float64
	SuccessRate    float64
}

// Run implements Experiment.
func (t4 Table4) Run(w io.Writer, opts Options) error {
	rows, trials, err := t4.Measure(opts)
	if err != nil {
		return err
	}
	tb := newTable(w)
	tb.row("target", "sum", "avg beta initial", "avg beta final", "avg alpha", "avg D count", "avg D bytes", "success")
	for _, r := range rows {
		tb.row(
			fmt.Sprintf("%.1fx expected", r.TargetFactor),
			fmt.Sprintf("%.3g", r.TargetSum),
			fmt.Sprintf("%.2f%%", r.AvgInitialBeta*100),
			fmt.Sprintf("%.2f%%", r.AvgFinalBeta*100),
			fmt.Sprintf("%.2f%%", r.AvgAlpha*100),
			fmt.Sprintf("%.3f", r.AvgDCount),
			fmt.Sprintf("%.3f", r.AvgDBytes),
			fmt.Sprintf("%.0f%%", r.SuccessRate*100),
		)
	}
	tb.flush()
	fmt.Fprintf(w, "N=1000 files, lognormal(8.16, 2.46), %d trials per target; paper: beta_final ~2-4%%, alpha ~5-41%%, D ~0.03-0.08, success 90-100%%\n", trials)
	return nil
}

// Measure runs the Table 4 trials.
func (t4 Table4) Measure(opts Options) ([]Table4Row, int, error) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 20
	}
	if opts.Quick {
		trials = 5
	}
	const n = 1000
	factors := []float64{0.5, 1.0, 1.5}

	var rows []Table4Row
	for fi, factor := range factors {
		target := factor * constraintExpectedSum(n)
		row := Table4Row{TargetFactor: factor, TargetSum: target}
		var successes int
		var initBetas, finalBetas, alphas, dCounts, dBytes []float64
		for trial := 0; trial < trials; trial++ {
			rng := stats.NewRNG(opts.Seed).Fork("table4").SplitN(uint64(fi)).SplitN(uint64(trial))
			resolver := constraint.NewResolver(rng)
			res, err := resolver.Resolve(constraint.Problem{
				N: n, TargetSum: target, Dist: constraintDist(),
			})
			if err != nil {
				return nil, 0, err
			}
			initBetas = append(initBetas, res.InitialBeta)
			if !res.Converged {
				continue
			}
			successes++
			finalBetas = append(finalBetas, res.FinalBeta)
			alphas = append(alphas, res.OversampleRate)
			dCounts = append(dCounts, res.KS.D)
			// D for bytes: compare byte-weighted histograms of the original
			// sample and the constrained subset.
			reference := stats.SampleN(constraintDist(), rng.Fork("reference"), n)
			refH := stats.NewPowerOfTwoHistogram(24)
			conH := stats.NewPowerOfTwoHistogram(24)
			for _, v := range reference {
				refH.AddWeighted(v, v)
			}
			for _, v := range res.Values {
				conH.AddWeighted(v, v)
			}
			if d, err := gof.MDCC(conH.Normalize(), refH.Normalize()); err == nil {
				dBytes = append(dBytes, d)
			}
		}
		row.AvgInitialBeta = stats.Mean(initBetas)
		row.AvgFinalBeta = meanOrZero(finalBetas)
		row.AvgAlpha = meanOrZero(alphas)
		row.AvgDCount = meanOrZero(dCounts)
		row.AvgDBytes = meanOrZero(dBytes)
		row.SuccessRate = float64(successes) / float64(trials)
		rows = append(rows, row)
	}
	return rows, trials, nil
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}
