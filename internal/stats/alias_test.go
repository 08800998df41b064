package stats

import (
	"math"
	"testing"
)

// aliasExactPMF recovers the exact distribution an alias table encodes by
// integrating SampleU over a fine uniform grid within each column.
func aliasExactPMF(t AliasTable) []float64 {
	n := t.Len()
	pmf := make([]float64, n)
	const grid = 10000
	for g := 0; g < grid; g++ {
		u := (float64(g) + 0.5) / grid
		pmf[t.SampleU(u)] += 1.0 / grid
	}
	return pmf
}

func TestAliasTableMatchesWeights(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 1},
		{1, 2, 7},
		{0.5, 0, 0.25, 0.25},
		{12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8,
			2.4, 2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.15, 0.1, 0.07},
	}
	for ci, weights := range cases {
		table := NewAliasTable(weights)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		pmf := aliasExactPMF(table)
		for i, w := range weights {
			want := w / total
			if math.Abs(pmf[i]-want) > 0.01 {
				t.Errorf("case %d: P(%d) = %.4f, want %.4f", ci, i, pmf[i], want)
			}
		}
	}
}

func TestAliasTableZeroWeightNeverSampled(t *testing.T) {
	table := NewAliasTable([]float64{1, 0, 3})
	rng := NewRNG(7)
	for i := 0; i < 20000; i++ {
		if table.Sample(rng) == 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

func TestAliasTableSampleStatistics(t *testing.T) {
	weights := []float64{1, 2, 7}
	table := NewAliasTable(weights)
	rng := NewRNG(3)
	counts := make([]float64, len(weights))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[table.Sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(counts[i]-want) > 0.05*n {
			t.Errorf("category %d sampled %.0f times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasTableEdgeUniforms(t *testing.T) {
	table := NewAliasTable([]float64{3, 1, 1, 1})
	for _, u := range []float64{0, 1e-18, 0.25, 0.5, 0.999999999999, math.Nextafter(1, 0)} {
		idx := table.SampleU(u)
		if idx < 0 || idx >= table.Len() {
			t.Fatalf("SampleU(%g) = %d out of range", u, idx)
		}
	}
}

func TestAliasTablePanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero-sum": {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewAliasTable(weights)
		}()
	}
}

func TestAliasTableSingleAndUniform(t *testing.T) {
	one := NewAliasTable([]float64{42})
	rng := NewRNG(1)
	for i := 0; i < 100; i++ {
		if one.Sample(rng) != 0 {
			t.Fatal("single-category table must always return 0")
		}
	}
	uni := NewAliasTable([]float64{1, 1, 1, 1})
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[uni.Sample(rng)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("uniform table category %d sampled %d times, want ~10000", i, c)
		}
	}
}

func BenchmarkAliasTableSample(b *testing.B) {
	weights := make([]float64, 1000)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	table := NewAliasTable(weights)
	rng := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = table.Sample(rng)
	}
}

func TestUniformAtDeterministicAndUniform(t *testing.T) {
	r1 := NewRNG(99)
	r2 := NewRNG(99)
	for i := uint64(0); i < 100; i++ {
		a, b := r1.UniformAt(i), r2.UniformAt(i)
		if a != b {
			t.Fatalf("UniformAt(%d) differs between same-seed RNGs: %g vs %g", i, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("UniformAt(%d) = %g outside [0,1)", i, a)
		}
	}
	// Consecutive indices must be well-separated (mean near 0.5).
	sum := 0.0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		sum += r1.UniformAt(i)
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("UniformAt mean %.4f, want ~0.5", mean)
	}
	// Independent of parent RNG state: drawing from the parent must not
	// perturb indexed uniforms.
	before := r1.UniformAt(7)
	r1.Float64()
	if r1.UniformAt(7) != before {
		t.Error("UniformAt must not depend on parent RNG state")
	}
}

func TestUniformAtAllocationFree(t *testing.T) {
	r := NewRNG(5)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.UniformAt(12345)
	})
	if allocs != 0 {
		t.Errorf("UniformAt allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPickColumnMatchesBranch holds the branch-free keep-or-alias select to
// the comparison it replaces, on random draws and on low bits at each
// column's threshold.
func TestPickColumnMatchesBranch(t *testing.T) {
	table := NewAliasTable([]float64{12.7, 9.1, 8.2, 7.5, 0, 6.7, 6.3, 0.07, 1, 3})
	cols, shift := table.Columns()
	branch := func(v uint64) int {
		i := int(v >> shift)
		if uint32(v) < cols[i].Thresh {
			return i
		}
		return int(cols[i].Alias)
	}
	check := func(v uint64) {
		if got, want := table.SampleBits(v), branch(v); got != want {
			t.Fatalf("SampleBits(%#x) = %d, want %d", v, got, want)
		}
	}
	rng := NewRNG(5)
	for i := 0; i < 100000; i++ {
		check(rng.Uint64())
	}
	for i, c := range cols {
		hi := uint64(i) << shift
		for _, low := range []uint32{0, c.Thresh - 1, c.Thresh, c.Thresh + 1, math.MaxUint32} {
			check(hi | uint64(low))
		}
	}
}
