package stats

import (
	"math"
	"sort"
)

// radixSortMin is the length below which SortFloat64s leaves the work to
// sort.Float64s: under it, clearing and summing the digit counts costs more
// than the comparisons they save.
const radixSortMin = 1024

// SortFloat64s writes the values of src into dst in increasing order. The
// result equals copying src into dst and calling sort.Float64s(dst), value
// for value: NaNs first, then the rest ascending (a -0 and a +0 are equal
// there, in either order). dst must have src's length and may be src itself;
// otherwise the two must not overlap, and src is left as it was.
//
// Long slices without a NaN are radix sorted, least significant byte first,
// over the IEEE bits made order-preserving, in linear time: one pass counts
// every byte's digits, and each byte whose digit is not the same for every
// value then moves the values once, between dst and one scratch slice of
// src's length, the first of those moves reading from src.
func SortFloat64s(dst, src []float64) {
	n := len(src)
	if len(dst) != n {
		panic("stats: SortFloat64s needs dst as long as src")
	}
	if n < radixSortMin {
		copy(dst, src)
		sort.Float64s(dst)
		return
	}
	var counts [8][256]int
	for _, v := range src {
		if v != v {
			copy(dst, src)
			sort.Float64s(dst)
			return
		}
		k := sortKey(v)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := sortKey(src[0])
	var passes []int
	for b := range counts {
		if counts[b][byte(first>>(8*b))] != n {
			passes = append(passes, b)
		}
	}
	if len(passes) == 0 {
		copy(dst, src)
		return
	}

	// The passes alternate between dst and scratch so that the last one
	// writes dst. When dst is src and the first pass would write it, src is
	// read from a copy in scratch instead.
	scratch := make([]float64, n)
	from := src
	if len(passes)%2 == 1 && &dst[0] == &src[0] {
		copy(scratch, src)
		from = scratch
	}
	for i, b := range passes {
		to := scratch
		if (len(passes)-1-i)%2 == 0 {
			to = dst
		}
		scatter(to, from, &counts[b], uint(8*b))
		from = to
	}
}

// sortKey maps a float64 that is not a NaN to a uint64 in the same order:
// negative values have every bit flipped, the rest only the sign bit.
func sortKey(v float64) uint64 {
	bits := math.Float64bits(v)
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// scatter moves from into to, stably ordered by the byte of each value's
// sort key at shift, given how many values hold each digit.
func scatter(to, from []float64, count *[256]int, shift uint) {
	var next [256]int
	sum := 0
	for digit, c := range count {
		next[digit] = sum
		sum += c
	}
	for _, v := range from {
		digit := byte(sortKey(v) >> shift)
		to[next[digit]] = v
		next[digit]++
	}
}
