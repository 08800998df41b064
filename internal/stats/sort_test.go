package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// floatsOf reads b as little-endian float64s, ignoring a short tail.
func floatsOf(b []byte) []float64 {
	vs := make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

func bytesOf(vs []float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// checkSortFloat64s sorts vs into a new slice and in place, and requires
// each to equal sort.Float64s's order value for value: == or both NaN.
func checkSortFloat64s(t *testing.T, vs []float64) {
	t.Helper()
	want := slices.Clone(vs)
	sort.Float64s(want)
	src := slices.Clone(vs)
	got := make([]float64, len(vs))
	SortFloat64s(got, src)
	if !slices.Equal(bytesOf(src), bytesOf(vs)) {
		t.Fatalf("SortFloat64s(dst, src) changed src")
	}
	inPlace := slices.Clone(vs)
	SortFloat64s(inPlace, inPlace)
	for name, got := range map[string][]float64{"into dst": got, "in place": inPlace} {
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s, %d values: element %d is %v, sort.Float64s puts %v there", name, len(vs), i, got[i], want[i])
			}
		}
	}
}

// sortSeeds are the inputs the fuzz target starts from, which every go test
// replays: lengths either side of radixSortMin, signed zeros, infinities,
// NaNs, subnormals and runs of duplicates.
func sortSeeds() [][]float64 {
	rng := NewRNG(20090225)
	lognormal := NewLognormal(9.48, 2.46)
	fill := func(n int, draw func(i int) float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = draw(i)
		}
		return vs
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	var seeds [][]float64
	for _, n := range []int{0, 1, 2, radixSortMin - 1, radixSortMin, radixSortMin + 1, 3000} {
		seeds = append(seeds,
			fill(n, func(int) float64 { return lognormal.Sample(rng) }),
			fill(n, func(int) float64 { return rng.Float64()*2 - 1 }),
			fill(n, func(i int) float64 { return special[i%len(special)] }),
			fill(n, func(i int) float64 { return float64(i / 37) }),                 // runs of duplicates
			fill(n, func(int) float64 { return math.Round(lognormal.Sample(rng)) }), // integral sizes
			fill(n, func(int) float64 { return 7 }),
			// One and two bytes of the keys vary: an odd and an even number
			// of moves.
			fill(n, func(i int) float64 { return math.Float64frombits(math.Float64bits(1) + uint64(i*7919%256)) }),
			fill(n, func(i int) float64 { return math.Float64frombits(math.Float64bits(-1) + uint64(i*7919%65536)) }),
		)
		withNaN := fill(n, func(int) float64 { return lognormal.Sample(rng) })
		if n > 0 {
			withNaN[n/2] = math.NaN()
			seeds = append(seeds, withNaN)
		}
	}
	return seeds
}

// FuzzSortFloat64s: SortFloat64s on arbitrary float64s, read from the input
// eight bytes at a time, puts the value sort.Float64s does at every index.
func FuzzSortFloat64s(f *testing.F) {
	for _, vs := range sortSeeds() {
		f.Add(bytesOf(vs))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkSortFloat64s(t, floatsOf(b))
	})
}

// BenchmarkSortFloat64s sorts the resolver's shape of input, lognormal
// sizes, with each sort: radix is SortFloat64s, and sort is the copy and
// sort.Float64s it replaces.
func BenchmarkSortFloat64s(b *testing.B) {
	rng := NewRNG(7)
	lognormal := NewLognormal(9.48, 2.46)
	for _, n := range []int{radixSortMin, 4000, 55000} {
		src := make([]float64, n)
		for i := range src {
			src[i] = lognormal.Sample(rng)
		}
		dst := make([]float64, n)
		b.Run("radix/"+strconv.Itoa(n), func(b *testing.B) {
			for b.Loop() {
				SortFloat64s(dst, src)
			}
		})
		b.Run("sort/"+strconv.Itoa(n), func(b *testing.B) {
			for b.Loop() {
				copy(dst, src)
				sort.Float64s(dst)
			}
		})
	}
}
