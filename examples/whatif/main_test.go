package main

import (
	"math"
	"testing"

	"impressions/internal/stats"
)

func TestLognormalFitRecoversParameters(t *testing.T) {
	truth := stats.NewLognormal(9.48, 2.46)
	rng := stats.NewRNG(1)
	samples := stats.SampleN(truth, rng, 50000)
	fitted, err := fitLognormal(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fitted.Mu-9.48) > 0.05 {
		t.Errorf("fitted mu %.3f, want ~9.48", fitted.Mu)
	}
	if math.Abs(fitted.Sigma-2.46) > 0.05 {
		t.Errorf("fitted sigma %.3f, want ~2.46", fitted.Sigma)
	}
}

func TestLognormalFitIgnoresNonPositive(t *testing.T) {
	samples := []float64{-1, 0, math.E, math.E, math.E, math.E * math.E}
	fitted, err := fitLognormal(samples)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.Mu < 1 || fitted.Mu > 2 {
		t.Errorf("fitted mu %.3f outside [1,2]", fitted.Mu)
	}
}

func TestLognormalFitErrors(t *testing.T) {
	if _, err := fitLognormal([]float64{1}); err == nil {
		t.Error("expected error for a single sample")
	}
	if _, err := fitLognormal([]float64{5, 5, 5}); err == nil {
		t.Error("expected error for zero-variance data")
	}
}
