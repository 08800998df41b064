package content

import (
	"bytes"
	"fmt"
	"testing"

	"impressions/internal/stats"
)

// The reference loops below are the content kernels as they were written
// before the branch-free rewrite: one alias branch, one wrap branch and one
// letter per iteration, the RNG state behind its pointer. The kernels must
// produce the same bytes, return the same line length and leave the RNG at
// the same draw.

// oracleLetters appends length letters, one per iteration, taking a fresh
// draw every six.
func oracleLetters(dst []byte, length int, rng *stats.RNG) []byte {
	var bits uint64
	avail := 0
	for i := 0; i < length; i++ {
		if avail == 0 {
			bits = rng.Uint64()
			avail = 6
		}
		dst = append(dst, letterTable[bits&1023])
		bits >>= 10
		avail--
	}
	return dst
}

// oracleFillBlock is the fused hybrid block filler with the alias
// keep-or-alias decision and the line wrap written as branches.
func oracleFillBlock(m *HybridModel, buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int) {
	cols, shift := m.combined.Columns()
	for len(buf) < limit {
		v := rng.Uint64()
		idx := int(v >> shift)
		if uint32(v) >= cols[idx].Thresh {
			idx = int(cols[idx].Alias)
		}
		wordStart := len(buf)
		var wordLen int
		if idx < m.vocab {
			wordLen = int(m.wordLens[idx])
			if lineLen == 0 {
				buf = append(buf, m.words[idx]...)
				lineLen = wordLen
				continue
			}
			buf = append(buf, ' ')
			buf = append(buf, m.words[idx]...)
		} else {
			wordLen = idx - m.vocab + 1
			if lineLen == 0 {
				buf = oracleLetters(buf, wordLen, rng)
				lineLen = wordLen
				continue
			}
			buf = append(buf, ' ')
			buf = oracleLetters(buf, wordLen, rng)
		}
		if lineLen+1+wordLen > TextLineWidth {
			buf[wordStart] = '\n'
			lineLen = wordLen
		} else {
			lineLen += 1 + wordLen
		}
	}
	return buf, lineLen
}

// oracleFillRandom writes each draw as eight single-byte stores.
func oracleFillRandom(buf []byte, rng *stats.RNG) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := rng.Uint64()
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
		buf[i+4] = byte(v >> 32)
		buf[i+5] = byte(v >> 40)
		buf[i+6] = byte(v >> 48)
		buf[i+7] = byte(v >> 56)
	}
	if i < len(buf) {
		v := rng.Uint64()
		for ; i < len(buf); i++ {
			buf[i] = byte(v)
			v >>= 8
		}
	}
}

// kernelTailProbs are the hybrid blends the kernel checks run: body only, the
// default, an even mix and tail only.
var kernelTailProbs = []float64{0, 0.2, 0.5, 1}

// textFill is the fillBlock signature both the kernel and the oracle have.
type textFill func(buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int)

// fillText runs fill block by block over a file of size bytes whose first
// line already holds lineLen bytes, as TextGenerator.Generate does, reusing
// buf for every block. It returns the file and its last line's length.
func fillText(fill textFill, buf []byte, size, lineLen int, rng *stats.RNG) ([]byte, int) {
	var out []byte
	for len(out) < size {
		limit := min(blockSize, size-len(out))
		buf, lineLen = fill(buf[:0], limit, lineLen, rng)
		out = append(out, buf[:min(len(buf), size-len(out))]...)
	}
	return out, lineLen
}

// checkTextFill holds HybridModel.fillBlock to oracleFillBlock over a file
// of size bytes (up to a few blocks) with a line carry-in: the bytes, the
// returned line length and the next draw must all agree.
func checkTextFill(t *testing.T, seed int64, size, lineLen int, tailProb float64) {
	t.Helper()
	m := NewHybridModel(tailProb)
	oracle := func(buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int) {
		return oracleFillBlock(m, buf, limit, lineLen, rng)
	}
	wantRNG := stats.NewRNG(seed)
	want, wantLine := fillText(oracle, nil, size, lineLen, wantRNG)
	wantNext := wantRNG.Uint64()

	bp := getBlock()
	defer putBlock(bp, *bp)
	// A dirty block: the kernel may not rely on what a previous file left.
	buf := (*bp)[:cap(*bp)]
	for i := range buf {
		buf[i] = 0xA5
	}
	rng := stats.NewRNG(seed)
	got, gotLine := fillText(m.fillBlock, buf, size, lineLen, rng)
	where := fmt.Sprintf("seed %d size %d lineLen %d tail %v", seed, size, lineLen, tailProb)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: first difference at byte %d", where, i)
	}
	if gotLine != wantLine {
		t.Fatalf("%s: line length %d, want %d", where, gotLine, wantLine)
	}
	if next := rng.Uint64(); next != wantNext {
		t.Fatalf("%s: next draw %#x, want %#x", where, next, wantNext)
	}
	if lineLen == 0 {
		// A file starts with no carry-in: Generate itself must agree.
		var file bytes.Buffer
		rng := stats.NewRNG(seed)
		if err := NewTextGenerator(m).Generate(&file, int64(size), rng); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), want) || rng.Uint64() != wantNext {
			t.Fatalf("%s: Generate differs from the oracle", where)
		}
	}
}

// checkBinaryFill holds fillRandom to oracleFillRandom for one buffer.
func checkBinaryFill(t *testing.T, seed int64, size int) {
	t.Helper()
	want := make([]byte, size)
	wantRNG := stats.NewRNG(seed)
	oracleFillRandom(want, wantRNG)
	got := make([]byte, size)
	rng := stats.NewRNG(seed)
	fillRandom(got, rng)
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d size %d: bytes differ", seed, size)
	}
	if g, w := rng.Uint64(), wantRNG.Uint64(); g != w {
		t.Fatalf("seed %d size %d: next draw %#x, want %#x", seed, size, g, w)
	}
}

// TestKernelsMatchOracles runs the kernels against the reference loops over
// many seeds, sizes around draw and block edges, and line carry-ins.
func TestKernelsMatchOracles(t *testing.T) {
	sizes := []int{1, 2, 7, 8, 9, 31, 33, 4095, blockSize - 1, blockSize + 1, 3*blockSize + 17}
	seeds := 133
	if testing.Short() || raceEnabled {
		seeds = 11
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s)*7919 + 1
		for _, size := range sizes {
			for _, tail := range kernelTailProbs {
				checkTextFill(t, seed, size, s%(TextLineWidth+1), tail)
			}
			checkBinaryFill(t, seed, size)
		}
	}
}

// TestAppendLettersMatchesOracle holds the one letter routine to the
// per-letter loop for every word length the models emit, on a dst whose
// spare capacity holds bytes that must survive.
func TestAppendLettersMatchesOracle(t *testing.T) {
	for length := 0; length <= MaxSyntheticWordLength; length++ {
		for seed := int64(1); seed <= 50; seed++ {
			want := oracleLetters([]byte("ab"), length, stats.NewRNG(seed))
			backing := bytes.Repeat([]byte{'#'}, 64)
			rng := stats.NewRNG(seed)
			got := appendLetters(append(backing[:0], "ab"...), length, rng)
			if !bytes.Equal(got, want) {
				t.Fatalf("length %d seed %d: %q, want %q", length, seed, got, want)
			}
			if end := 2 + length; !bytes.Equal(backing[end:], bytes.Repeat([]byte{'#'}, 64-end)) {
				t.Fatalf("length %d seed %d: wrote past the word: %q", length, seed, backing[end:])
			}
			wantRNG := stats.NewRNG(seed)
			oracleLetters(nil, length, wantRNG)
			if rng.Uint64() != wantRNG.Uint64() {
				t.Fatalf("length %d seed %d: letters took a different number of draws", length, seed)
			}
		}
	}
}

// fuzzSize maps a fuzzer's size to 1 … 3·blockSize bytes: fuzzSize(n-1) is
// n.
func fuzzSize(size uint32) int { return int(size%(3*blockSize)) + 1 }

// FuzzTextFill holds the branch-free text kernel to oracleFillBlock: bytes,
// returned line length and the next draw.
func FuzzTextFill(f *testing.F) {
	// Seed 156693's first draw is a 24-letter tail word under the tail-only
	// model: at the limit of a one-byte block, as a file's first word and
	// behind a separator that wraps.
	f.Add(int64(156693), uint32(0), uint8(0), uint8(3))
	f.Add(int64(156693), uint32(0), uint8(48), uint8(3))
	// Seed 7919's first word under the default blend has three letters: it
	// ends at exactly column 72 behind 68 bytes, and wraps behind 69.
	f.Add(int64(7919), uint32(199), uint8(68), uint8(1))
	f.Add(int64(7919), uint32(199), uint8(69), uint8(1))
	f.Add(int64(7919), uint32(199), uint8(72), uint8(1))
	// A file's first word (no carry-in), and sizes 1 to 8 around a draw
	// boundary.
	for size := uint32(1); size <= 8; size++ {
		f.Add(int64(size), size-1, uint8(0), uint8(size%4))
	}
	f.Add(int64(3), uint32(3*blockSize-1), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size uint32, lineLen, tail uint8) {
		checkTextFill(t, seed, fuzzSize(size), int(lineLen)%(TextLineWidth+1), kernelTailProbs[tail%4])
	})
}

// FuzzBinaryFill holds the four-draw binary kernel to oracleFillRandom:
// bytes and the next draw.
func FuzzBinaryFill(f *testing.F) {
	for size := uint32(1); size <= 8; size++ {
		f.Add(int64(size), size-1)
	}
	f.Add(int64(1), uint32(30))
	f.Add(int64(7919), uint32(32))
	f.Add(int64(424243), uint32(3*blockSize-1))
	f.Fuzz(func(t *testing.T, seed int64, size uint32) {
		checkBinaryFill(t, seed, fuzzSize(size))
	})
}
