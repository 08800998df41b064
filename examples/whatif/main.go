// What-if analysis (§3.5 of the paper): interpolate and extrapolate file-size
// distributions to file-system sizes for which no measured data exists, then
// generate an image from the interpolated curve.
//
// Run with:
//
//	go run ./examples/whatif
package main

import (
	"errors"
	"fmt"
	"log"
	"math"

	"impressions"
	"impressions/internal/dataset"
	"impressions/internal/stats"
	"impressions/internal/stats/gof"
	"impressions/internal/stats/interp"
)

func main() {
	// Build "measured" file-size curves for 10, 50 and 100 GB file systems
	// from the synthetic dataset substrate.
	ds := dataset.New(1, dataset.WithSampleCount(60000), dataset.WithDirectorySampleCount(500))
	curves := interp.NewCurveSet()
	for _, gb := range []float64{10, 50, 100} {
		p := ds.Profile(gb * dataset.GB)
		if err := curves.Add(gb, p.FilesBySize); err != nil {
			log.Fatal(err)
		}
	}

	// Interpolate the 75 GB curve and extrapolate the 125 GB curve, then
	// compare them against the held-out "real" profiles.
	for _, target := range []float64{75, 125} {
		generated, err := curves.InterpolateHistogram(target, 10000)
		if err != nil {
			log.Fatal(err)
		}
		truth := ds.Profile(target * dataset.GB).FilesBySize
		d := gof.KSStatisticCDFs(generated.CDF(), truth.CDF())
		mode := "interpolated"
		if curves.IsExtrapolation(target) {
			mode = "extrapolated"
		}
		fmt.Printf("%.0f GB curve %s from 10/50/100 GB references: max CDF difference %.3f\n", target, mode, d)
	}

	// Turn the interpolated 75 GB curve into a parametric model by fitting a
	// lognormal body to samples drawn from it, and generate a small image
	// with that model — a "what if my users' file systems were 75 GB" study.
	fracs, err := curves.Interpolate(75)
	if err != nil {
		log.Fatal(err)
	}
	samples := sampleFromBins(fracs, 20000)
	model, err := fitLognormal(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted lognormal body for the 75 GB curve: mu=%.2f sigma=%.2f\n", model.Mu, model.Sigma)

	res, err := impressions.Generate(impressions.Config{
		Mode:         impressions.ModeUserSpecified,
		NumFiles:     2000,
		NumDirs:      400,
		FileSizeDist: model,
		Seed:         99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Image.Summary())
}

// sampleFromBins draws values from a power-of-two-binned distribution by
// picking a bin according to its probability and a uniform point inside it.
func sampleFromBins(fracs []float64, n int) []float64 {
	edges := stats.PowerOfTwoEdges(dataset.SizeMaxExp)
	rng := stats.NewRNG(5)
	out := make([]float64, 0, n)
	for len(out) < n {
		u := rng.Float64()
		acc := 0.0
		for i, f := range fracs {
			acc += f
			if u < acc {
				lo, hi := edges[i], edges[i+1]
				out = append(out, lo+rng.Float64()*(hi-lo))
				break
			}
		}
	}
	return out
}

// fitLognormal fits a lognormal distribution to positive samples by maximum
// likelihood (mean and standard deviation of the log-transformed data).
// Non-positive samples are ignored; at least two positive samples are
// required.
func fitLognormal(samples []float64) (stats.Lognormal, error) {
	logs := make([]float64, 0, len(samples))
	for _, v := range samples {
		if v > 0 {
			logs = append(logs, math.Log(v))
		}
	}
	if len(logs) < 2 {
		return stats.Lognormal{}, errors.New("whatif: need at least two positive samples")
	}
	sigma := stats.StdDev(logs)
	if sigma <= 0 || math.IsNaN(sigma) {
		return stats.Lognormal{}, errors.New("whatif: degenerate lognormal (zero variance)")
	}
	return stats.NewLognormal(stats.Mean(logs), sigma), nil
}
