// Package content generates file content for Impressions images (§3.6 of the
// paper). Human-readable files can be filled with a single repeated word,
// with words drawn from a word-popularity model (a Zipf-weighted list of the
// most popular English words), with synthetic words drawn from a word-length
// frequency model (Sigurd et al.'s "Zipf revisited" lengths), or with the
// paper's hybrid of the two: the popularity model supplies the body of common
// words while the length model generates the long tail. Typed files (jpg,
// gif, mp3, pdf, html, ...) receive minimally valid headers and footers so
// content-aware applications can recognize them.
package content

import (
	"encoding/binary"
	"slices"
	"sort"

	"impressions/internal/stats"
)

// popularWords lists the most popular English words in decreasing frequency
// rank. Word popularity follows a Zipf law, so the list is paired with a Zipf
// rank distribution when sampling. The list covers the high-frequency "body"
// of English; the long tail is produced by the word-length model.
var popularWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "i",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
	"there", "use", "an", "each", "which", "she", "do", "how", "their", "if",
	"will", "up", "other", "about", "out", "many", "then", "them", "these", "so",
	"some", "her", "would", "make", "like", "him", "into", "time", "has", "look",
	"two", "more", "write", "go", "see", "number", "no", "way", "could", "people",
	"my", "than", "first", "water", "been", "call", "who", "oil", "its", "now",
	"find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
	"over", "new", "sound", "take", "only", "little", "work", "know", "place", "year",
	"live", "me", "back", "give", "most", "very", "after", "thing", "our", "just",
	"name", "good", "sentence", "man", "think", "say", "great", "where", "help", "through",
	"much", "before", "line", "right", "too", "mean", "old", "any", "same", "tell",
	"boy", "follow", "came", "want", "show", "also", "around", "form", "three", "small",
	"set", "put", "end", "does", "another", "well", "large", "must", "big", "even",
	"such", "because", "turn", "here", "why", "ask", "went", "men", "read", "need",
	"land", "different", "home", "us", "move", "try", "kind", "hand", "picture", "again",
	"change", "off", "play", "spell", "air", "away", "animal", "house", "point", "page",
	"letter", "mother", "answer", "found", "study", "still", "learn", "should", "america", "world",
}

// WordModel samples words for generated text content. The next word is
// appended to dst rather than returned as a string, so TextGenerator fills
// content blocks without any per-word allocation.
type WordModel interface {
	// AppendWord appends the next word's bytes to dst and returns the
	// extended slice.
	AppendWord(dst []byte, rng *stats.RNG) []byte
	// Name identifies the model in reproducibility reports.
	Name() string
}

// PopularityModel draws words from the popular-word list with Zipf-weighted
// ranks (the paper's word-popularity model).
type PopularityModel struct {
	words []string
	zipf  stats.Zipf
}

// NewPopularityModel returns a word-popularity model over the built-in list
// with Zipf exponent s (1.0 is the classical Zipf law; the paper's model).
func NewPopularityModel(s float64) *PopularityModel {
	return &PopularityModel{words: popularWords, zipf: stats.NewZipf(s, len(popularWords))}
}

// AppendWord appends a word with Zipf-distributed rank.
func (m *PopularityModel) AppendWord(dst []byte, rng *stats.RNG) []byte {
	return append(dst, m.words[m.zipf.SampleIntU(rng.Float64())-1]...)
}

// Name implements WordModel.
func (m *PopularityModel) Name() string { return "word-popularity" }

// Vocabulary returns the number of distinct words the model can emit.
func (m *PopularityModel) Vocabulary() int { return len(m.words) }

// LengthModel generates synthetic words whose lengths follow the
// word-length frequency model of Sigurd et al. (used by the paper to cover
// the heavy tail of word popularity without keeping an exhaustive word list).
// The length distribution is a gamma-like discrete curve peaking at 3-4
// letters; letters are drawn with English letter frequencies. Both draws go
// through O(1) alias tables; the length table is indexed directly (index i is
// length i+1), so the model carries no category name strings.
type LengthModel struct {
	lengths stats.AliasTable
}

// MaxSyntheticWordLength is the longest word the length model can emit.
const MaxSyntheticWordLength = 24

// englishLetters orders letters by frequency; sampling weights follow
// approximate English letter frequencies.
var englishLetters = []byte("etaoinshrdlcumwfgypbvkjxqz")

var letterWeights = []float64{
	12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8, 2.4,
	2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.15, 0.1, 0.07,
}

// NewLengthModel builds the word-length frequency model.
func NewLengthModel() *LengthModel {
	// P(length = k) ∝ k * 0.45^k (discrete gamma-like curve, peak near 3).
	return &LengthModel{lengths: stats.NewAliasTable(lengthWeights())}
}

func pow(base float64, exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= base
	}
	return v
}

// lengthWeights returns the unnormalized word-length distribution
// P(length = k) ∝ k * 0.45^k for k in 1..MaxSyntheticWordLength.
func lengthWeights() []float64 {
	weights := make([]float64, MaxSyntheticWordLength)
	for k := 1; k <= MaxSyntheticWordLength; k++ {
		weights[k-1] = float64(k) * pow(0.45, k)
	}
	return weights
}

// AppendWord appends a synthetic word with model-distributed length: one
// draw picks the length, fresh draws the letters.
func (m *LengthModel) AppendWord(dst []byte, rng *stats.RNG) []byte {
	return appendLetters(dst, m.lengths.SampleU(rng.Float64())+1, rng)
}

// Name implements WordModel.
func (m *LengthModel) Name() string { return "word-length" }

// letterTable quantizes the English letter frequencies onto 1024 slots so one
// 64-bit draw yields six letters (10 bits each): the per-letter cost drops
// from a uniform draw plus an alias lookup to a shift and a table read. The
// quantization error is below 0.1 percentage points per letter — invisible in
// synthetic tail words.
var letterTable = buildLetterTable()

// buildLetterTable apportions the 1024 slots by largest remainder, so every
// letter (even 'z' at 0.065%) keeps at least its rounded share.
func buildLetterTable() [1024]byte {
	const slots = 1024
	total := 0.0
	for _, w := range letterWeights {
		total += w
	}
	counts := make([]int, len(letterWeights))
	type remainder struct {
		idx  int
		frac float64
	}
	rems := make([]remainder, len(letterWeights))
	used := 0
	for i, w := range letterWeights {
		exact := w / total * slots
		counts[i] = int(exact)
		used += counts[i]
		rems[i] = remainder{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; used < slots; i++ {
		counts[rems[i%len(rems)].idx]++
		used++
	}
	var tab [1024]byte
	pos := 0
	for i, c := range counts {
		for j := 0; j < c; j++ {
			tab[pos] = englishLetters[i]
			pos++
		}
	}
	return tab
}

// letters6 maps one draw to six English-frequency letters, ten bits each,
// packed little-endian into the low six bytes of a uint64.
func letters6(v uint64) uint64 {
	return uint64(letterTable[v&1023]) |
		uint64(letterTable[v>>10&1023])<<8 |
		uint64(letterTable[v>>20&1023])<<16 |
		uint64(letterTable[v>>30&1023])<<24 |
		uint64(letterTable[v>>40&1023])<<32 |
		uint64(letterTable[v>>50&1023])<<40
}

// letterSlack is how far putLetters may write past a word's last letter.
const letterSlack = 7

// putLetters writes n English-frequency letters at b[pos:], taking one draw
// from st per six letters, and returns the advanced state. Each six letters
// are one 8-byte store, so the last store may reach letterSlack bytes past
// pos+n; b must hold them.
func putLetters(b []byte, pos, n int, st stats.SplitMix64) stats.SplitMix64 {
	var v uint64
	for end := pos + n; pos < end; pos += 6 {
		st, v = st.Next()
		binary.LittleEndian.PutUint64(b[pos:], letters6(v))
	}
	return st
}

// appendLetters appends length English-frequency letters to dst, consuming
// one 64-bit draw per six letters. length is at most MaxSyntheticWordLength;
// nothing past the appended letters is written.
func appendLetters(dst []byte, length int, rng *stats.RNG) []byte {
	var word [MaxSyntheticWordLength + letterSlack]byte
	rng.SetState(putLetters(word[:], 0, length, rng.State()))
	return append(dst, word[:length]...)
}

// HybridModel combines the popularity model for the body of common words with
// the length model for the long tail, as §3.6 describes: maintaining an
// exhaustive word list is slow, so the tail is synthesized instead.
//
// One combined alias table fuses the body/tail selection, the body word
// choice and the tail word-length choice, so each word costs a single
// uniform draw (plus letter bits for tail words). Build it with
// NewHybridModel.
type HybridModel struct {
	// words is the popular-word list, in rank order.
	words []string
	// combined indexes [0, vocab) onto popular words and [vocab, vocab+24)
	// onto tail word lengths 1..24, pre-weighted by 1-tailProb and tailProb.
	combined stats.AliasTable
	vocab    int
	// wordsFixed packs " word" at a fixed 16-byte stride so the block filler
	// emits a body word as one constant-size copy (two SSE moves) instead of
	// a string-header load plus a memmove call. wordLens[i] is the length of
	// combined's outcome i without the separator: a popular word's length,
	// or a tail word's.
	wordsFixed [][16]byte
	wordLens   []uint8
}

// wordReach bounds how far the fused block filler writes past a word's
// start: a separator, the longest tail word and the letter stores' slack.
// A body word's 16-byte copy stays inside it too. The block pool's slack
// holds it, so the filler never grows a pooled block.
const wordReach = 1 + MaxSyntheticWordLength + letterSlack

const _ uint = blockSlack - wordReach // blockSlack >= wordReach

// NewHybridModel builds the hybrid word model with the given tail
// probability, the chance that any given word comes from the tail (the
// paper lets users pick the blend; 0.2 is the default). Every popular word
// is 1 to 15 bytes long, so " word" fits one 16-byte slot.
func NewHybridModel(tailProb float64) *HybridModel {
	tailProb = min(max(tailProb, 0), 1)
	pop := NewPopularityModel(1.0)
	m := &HybridModel{words: pop.words, vocab: pop.Vocabulary()}
	weights := make([]float64, m.vocab+MaxSyntheticWordLength)
	for i := 0; i < m.vocab; i++ {
		weights[i] = (1 - tailProb) * pop.zipf.PMF(i+1)
	}
	lw := lengthWeights()
	lwTotal := 0.0
	for _, w := range lw {
		lwTotal += w
	}
	for k, w := range lw {
		weights[m.vocab+k] = tailProb * w / lwTotal
	}
	m.combined = stats.NewAliasTable(weights)
	m.wordsFixed = make([][16]byte, m.vocab)
	m.wordLens = make([]uint8, len(weights))
	for k := range MaxSyntheticWordLength {
		m.wordLens[m.vocab+k] = uint8(k + 1)
	}
	for i, w := range m.words {
		m.wordsFixed[i][0] = ' '
		copy(m.wordsFixed[i][1:], w)
		m.wordLens[i] = uint8(len(w))
	}
	return m
}

// AppendWord appends the next word from either the popularity body or the
// synthesized tail: one alias draw picks the word (or tail length) directly.
func (m *HybridModel) AppendWord(dst []byte, rng *stats.RNG) []byte {
	idx := m.combined.Sample(rng)
	if idx < m.vocab {
		return append(dst, m.words[idx]...)
	}
	return appendLetters(dst, idx-m.vocab+1, rng)
}

// fillBlock implements blockFiller: the whole words-separators-wrapping loop
// runs with no per-word function calls and no branch on a random value but
// the body-or-tail one. One 64-bit draw and a branch-free alias pick select
// each word, popular words land in a single copy from the precomputed
// " word" strings, and the separator and the new line length are computed,
// not branched on. The generator state stays in a local for the whole
// block. A line only exceeds TextLineWidth when a single word is longer than
// the width, which no built-in word source is.
func (m *HybridModel) fillBlock(buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int) {
	pos := len(buf)
	if pos >= limit {
		return buf, lineLen
	}
	// Words are written through the block's spare capacity, up to wordReach
	// bytes past the last one's start.
	b := slices.Grow(buf, limit+wordReach-pos)
	b = b[:cap(b)]
	cols, shift := m.combined.Columns()
	fixed, lens, vocab := m.wordsFixed, m.wordLens, m.vocab
	st := rng.State()
	var v uint64
	if lineLen == 0 {
		// A file's first word has no separator in front of it.
		st, v = st.Next()
		idx := stats.PickColumn(cols, shift, v)
		lineLen = int(lens[idx])
		if idx < vocab {
			copy(b[pos:], m.words[idx])
		} else {
			st = putLetters(b, pos, lineLen, st)
		}
		pos += lineLen
	}
	for pos < limit {
		st, v = st.Next()
		idx := stats.PickColumn(cols, shift, v)
		wordLen := int(lens[idx])
		if idx < vocab {
			*(*[16]byte)(b[pos:]) = fixed[idx]
		} else {
			st = putLetters(b, pos+1, wordLen, st)
		}
		// Wrap BEFORE the word overflows the line: its separator becomes
		// the newline. wrap is all ones when it does, else zero.
		next := lineLen + 1 + wordLen
		wrap := -(uint64(TextLineWidth-next) >> 63)
		b[pos] = ' ' ^ byte(wrap)&(' '^'\n')
		lineLen = next - int(wrap&uint64(lineLen+1))
		pos += 1 + wordLen
	}
	rng.SetState(st)
	return b[:pos], lineLen
}

// Name implements WordModel.
func (m *HybridModel) Name() string { return "word-hybrid" }

// SingleWordModel repeats the same word forever; it reproduces the
// "Text (1 Word)" configuration of Figure 7 and Postmark-style content.
type SingleWordModel struct{ TheWord string }

// NewSingleWordModel returns a model that always emits word (default
// "impressions").
func NewSingleWordModel(word string) *SingleWordModel {
	if word == "" {
		word = "impressions"
	}
	return &SingleWordModel{TheWord: word}
}

// AppendWord appends the fixed word.
func (m *SingleWordModel) AppendWord(dst []byte, _ *stats.RNG) []byte {
	return append(dst, m.TheWord...)
}

// Name implements WordModel.
func (m *SingleWordModel) Name() string { return "single-word" }
