package constraint

import (
	"encoding/binary"
	"math"
	"testing"

	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

// checkPoolKS holds poolKS to gof.KSTwoSample bit for bit on a pool whose
// first n values are the initial draw and the rest the extras, with as many
// values left out of the subset as there are extras, chosen by seed.
func checkPoolKS(t *testing.T, pool []float64, n int, seed int64) {
	t.Helper()
	leftOut := stats.NewRNG(seed).Perm(len(pool))[:len(pool)-n]
	out := make([]bool, len(pool))
	for _, i := range leftOut {
		out[i] = true
	}
	var subset []float64
	for i, v := range pool {
		if !out[i] {
			subset = append(subset, v)
		}
	}
	want, wantErr := gof.KSTwoSample(subset, pool, ksAlpha)
	got, err := poolKS(sortedCopy(pool[:n]), pool[n:], gather(pool, leftOut))
	if err != wantErr || got.N != want.N || got.Passed != want.Passed ||
		math.Float64bits(got.D) != math.Float64bits(want.D) ||
		math.Float64bits(got.PValue) != math.Float64bits(want.PValue) ||
		math.Float64bits(got.Critical) != math.Float64bits(want.Critical) {
		t.Fatalf("%d draws, %d extras: poolKS = %+v, %v; KSTwoSample = %+v, %v", n, len(pool)-n, got, err, want, wantErr)
	}
}

// poolOf reads a pool from b eight bytes at a time, NaNs read as 0 (on a
// NaN KSTwoSample never ends), and takes its initial draw as all but
// extras%len of it, at least one value.
func poolOf(b []byte, extras uint16) ([]float64, int) {
	pool := make([]float64, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(v) {
			v = 0
		}
		pool = append(pool, v)
	}
	if len(pool) == 0 {
		return nil, 0
	}
	return pool, len(pool) - int(extras)%len(pool)
}

func poolBytes(pool []float64) []byte {
	b := make([]byte, 0, 8*len(pool))
	for _, v := range pool {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestPoolKSMatchesKSTwoSample runs checkPoolKS over the resolver's shape
// of pool, lognormal sizes with a few percent of extras, and over pools of
// ties and signed zeros.
func TestPoolKSMatchesKSTwoSample(t *testing.T) {
	rng := stats.NewRNG(11)
	lognormal := stats.NewLognormal(8.16, 2.46)
	for _, size := range []int{1, 2, 3, 50, 1100, 5000} {
		pool := make([]float64, size)
		for i := range pool {
			pool[i] = lognormal.Sample(rng)
		}
		for _, extras := range []int{0, 1, size / 20, size - 1} {
			checkPoolKS(t, pool, size-extras, int64(size+extras))
		}
		for i := range pool {
			pool[i] = []float64{0, math.Copysign(0, -1), 1, 1, math.Inf(1)}[i%5]
		}
		checkPoolKS(t, pool, size-size/3, 5)
	}
}

// FuzzPoolKS: poolKS equals gof.KSTwoSample bit for bit on arbitrary
// non-NaN pools, initial draws and left-out choices.
func FuzzPoolKS(f *testing.F) {
	rng := stats.NewRNG(3)
	lognormal := stats.NewLognormal(8.16, 2.46)
	sizes := make([]float64, 300)
	for i := range sizes {
		sizes[i] = math.Round(lognormal.Sample(rng))
	}
	f.Add(poolBytes(sizes), uint16(15), int64(1))
	f.Add(poolBytes([]float64{0, math.Copysign(0, -1), 2, 2, 2, math.Inf(-1), 7}), uint16(3), int64(2))
	f.Add(poolBytes([]float64{5}), uint16(0), int64(3))
	f.Fuzz(func(t *testing.T, b []byte, extras uint16, seed int64) {
		if pool, n := poolOf(b, extras); n > 0 {
			checkPoolKS(t, pool, n, seed)
		}
	})
}
