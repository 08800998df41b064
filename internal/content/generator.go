package content

import (
	"fmt"
	"io"
	"sync"

	"impressions/internal/stats"
)

// blockSize is the unit of buffered content generation: generators fill one
// block at a time and hand it to the writer in a single Write call, so the
// per-byte cost is amortized over 32 KB regardless of word or line lengths.
const blockSize = 32 * 1024

// blockSlack is extra capacity past blockSize so the word filling the block's
// last bytes (plus its separator) fits without growing the buffer.
const blockSlack = 256

// blockPool recycles content scratch blocks across files and goroutines, so
// steady-state generation performs zero allocations per file: concurrent
// Materialize and search-index workers draw from the shared pool instead of
// re-allocating scratch per file.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, blockSize+blockSlack)
		return &b
	},
}

// getBlock returns an empty scratch buffer with at least blockSize+blockSlack
// capacity.
func getBlock() *[]byte { return blockPool.Get().(*[]byte) }

// putBlock returns buf's backing array to the pool. buf may be a re-grown
// descendant of the slice *bp held when the block was taken.
func putBlock(bp *[]byte, buf []byte) {
	*bp = buf[:0]
	blockPool.Put(bp)
}

// zeroBlock is a shared read-only block of zero bytes for ZeroGenerator.
var zeroBlock [blockSize]byte

// Generator produces exactly size bytes of file content into w.
type Generator interface {
	// Generate writes size bytes of content to w.
	Generate(w io.Writer, size int64, rng *stats.RNG) error
	// Name identifies the generator in reproducibility reports.
	Name() string
}

// Kind selects a top-level content policy for an image.
type Kind string

// Content policy kinds, matching the configurations used in Figures 7 and 8
// of the paper.
const (
	// KindDefault generates typed content per extension: text-like files use
	// the hybrid word model, known binary extensions get valid headers, and
	// unknown extensions get random bytes.
	KindDefault Kind = "default"
	// KindTextSingleWord fills every file with a single repeated word.
	KindTextSingleWord Kind = "text-1word"
	// KindTextModel fills every file with word-model text.
	KindTextModel Kind = "text-model"
	// KindImage fills every file with image (JPEG) content.
	KindImage Kind = "image"
	// KindBinary fills every file with random binary content.
	KindBinary Kind = "binary"
	// KindZero fills every file with zero bytes (fastest; metadata-only
	// studies).
	KindZero Kind = "zero"
)

// Known reports whether k is one of the six policies above. NewRegistry
// builds the default policy for any other string, so whoever takes a kind
// from outside — a flag, a spec, a plan document — asks this first.
func (k Kind) Known() bool {
	switch k {
	case KindDefault, KindTextSingleWord, KindTextModel, KindImage, KindBinary, KindZero:
		return true
	}
	return false
}

// TextLineWidth is the column at which TextGenerator wraps lines. A line
// only exceeds it when a single word is longer than the width.
const TextLineWidth = 72

// TextGenerator writes text produced by a WordModel, wrapping lines at
// TextLineWidth characters. Generation is block-based: words are appended
// into a pooled 32 KB buffer (via the model's WordAppender fast path when it
// has one) and line-wrapping decisions are amortized over whole blocks, so
// steady-state text generation performs zero allocations.
type TextGenerator struct {
	Model WordModel
}

// NewTextGenerator returns a text generator over the given word model.
func NewTextGenerator(model WordModel) *TextGenerator { return &TextGenerator{Model: model} }

// appenderFor returns the model's allocation-free appender, or a per-word
// string adapter for external models that only implement WordModel.
func appenderFor(m WordModel) WordAppender {
	if a, ok := m.(WordAppender); ok {
		return a
	}
	return stringWordAdapter{m}
}

type stringWordAdapter struct{ m WordModel }

func (a stringWordAdapter) AppendWord(dst []byte, rng *stats.RNG) []byte {
	return append(dst, a.m.Word(rng)...)
}

// blockFiller is implemented by models that can fill a whole wrapped-text
// block themselves, eliminating the per-word call from the generate loop.
// fillBlock appends wrapped words to buf until it reaches limit bytes, given
// the length of the current unterminated line, and returns the extended
// buffer and the new line length.
type blockFiller interface {
	fillBlock(buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int)
}

// fillBlockGeneric fills a block one AppendWord call at a time; it is the
// path for models without a fused fillBlock.
func fillBlockGeneric(app WordAppender, buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int) {
	for len(buf) < limit {
		wordStart := len(buf)
		if lineLen > 0 {
			buf = append(buf, ' ') // provisional; may become '\n'
		}
		buf = app.AppendWord(buf, rng)
		if len(buf) == wordStart {
			// Degenerate model emitting empty words: force progress.
			buf = append(buf, ' ')
		}
		wordLen := len(buf) - wordStart
		if lineLen > 0 {
			wordLen-- // exclude the separator
			// Wrap BEFORE the word overflows the line: the separator in
			// front of it becomes the newline, so no line grows past
			// TextLineWidth (unless a single word is longer than it).
			if lineLen+1+wordLen > TextLineWidth {
				buf[wordStart] = '\n'
				lineLen = wordLen
			} else {
				lineLen += 1 + wordLen
			}
		} else {
			lineLen = wordLen
		}
	}
	return buf, lineLen
}

// Generate implements Generator.
func (g *TextGenerator) Generate(w io.Writer, size int64, rng *stats.RNG) error {
	if size <= 0 {
		return nil
	}
	filler, fused := g.Model.(blockFiller)
	var app WordAppender
	if !fused {
		app = appenderFor(g.Model)
	}
	bp := getBlock()
	buf := *bp
	lineLen := 0 // length of the current (unterminated) line across blocks
	var written int64
	for written < size {
		buf = buf[:0]
		// Fill one block of wrapped words, stopping early once the file's
		// remaining bytes are covered, then emit it in a single Write.
		limit := blockSize
		if rem := size - written; rem < int64(limit) {
			limit = int(rem)
		}
		if fused {
			buf, lineLen = filler.fillBlock(buf, limit, lineLen, rng)
		} else {
			buf, lineLen = fillBlockGeneric(app, buf, limit, lineLen, rng)
		}
		emit := buf
		if need := size - written; int64(len(emit)) > need {
			emit = emit[:need]
		}
		if _, err := w.Write(emit); err != nil {
			putBlock(bp, buf)
			return fmt.Errorf("content: writing text: %w", err)
		}
		written += int64(len(emit))
	}
	putBlock(bp, buf)
	return nil
}

// Name implements Generator.
func (g *TextGenerator) Name() string { return "text(" + g.Model.Name() + ")" }

// BinaryGenerator writes pseudo-random bytes (incompressible, unique per
// file), the "Binary" configuration of Figure 7.
type BinaryGenerator struct{}

// Generate implements Generator.
func (BinaryGenerator) Generate(w io.Writer, size int64, rng *stats.RNG) error {
	if size <= 0 {
		return nil
	}
	bp := getBlock()
	buf := (*bp)[:blockSize]
	var written int64
	for written < size {
		n := int64(len(buf))
		if size-written < n {
			n = size - written
		}
		fillRandom(buf[:n], rng)
		if _, err := w.Write(buf[:n]); err != nil {
			putBlock(bp, buf)
			return fmt.Errorf("content: writing binary: %w", err)
		}
		written += n
	}
	putBlock(bp, buf)
	return nil
}

// Name implements Generator.
func (BinaryGenerator) Name() string { return "binary" }

// ZeroGenerator writes size zero bytes; useful for metadata-only experiments
// where content is irrelevant but sizes must be correct.
type ZeroGenerator struct{}

// Generate implements Generator.
func (ZeroGenerator) Generate(w io.Writer, size int64, rng *stats.RNG) error {
	var written int64
	for written < size {
		n := int64(blockSize)
		if size-written < n {
			n = size - written
		}
		if _, err := w.Write(zeroBlock[:n]); err != nil {
			return fmt.Errorf("content: writing zeros: %w", err)
		}
		written += n
	}
	return nil
}

// Name implements Generator.
func (ZeroGenerator) Name() string { return "zero" }

// SimilarityGenerator wraps another generator and re-emits a shared "seed
// block" for a controllable fraction of the content, producing a corpus with
// a specified degree of content similarity across files. The paper calls this
// out as the natural extension for evaluating content-addressable storage.
type SimilarityGenerator struct {
	// Base produces the unique portion of each file.
	Base Generator
	// SharedFraction in [0,1] is the fraction of each file's bytes that come
	// from the shared block (identical across all files using this
	// generator).
	SharedFraction float64
	shared         []byte
}

// NewSimilarityGenerator builds a similarity-controlled generator. The shared
// block is derived deterministically from sharedSeed.
func NewSimilarityGenerator(base Generator, sharedFraction float64, sharedSeed int64) *SimilarityGenerator {
	if sharedFraction < 0 {
		sharedFraction = 0
	}
	if sharedFraction > 1 {
		sharedFraction = 1
	}
	shared := make([]byte, 64*1024)
	fillRandom(shared, stats.NewRNG(sharedSeed))
	return &SimilarityGenerator{Base: base, SharedFraction: sharedFraction, shared: shared}
}

// Generate implements Generator.
func (g *SimilarityGenerator) Generate(w io.Writer, size int64, rng *stats.RNG) error {
	sharedBytes := int64(float64(size) * g.SharedFraction)
	var written int64
	for written < sharedBytes {
		n := int64(len(g.shared))
		if sharedBytes-written < n {
			n = sharedBytes - written
		}
		if _, err := w.Write(g.shared[:n]); err != nil {
			return fmt.Errorf("content: writing shared block: %w", err)
		}
		written += n
	}
	if size-written > 0 {
		return g.Base.Generate(w, size-written, rng)
	}
	return nil
}

// Name implements Generator.
func (g *SimilarityGenerator) Name() string {
	return fmt.Sprintf("similarity(%.0f%%,%s)", g.SharedFraction*100, g.Base.Name())
}

// fillRandom fills buf with deterministic pseudo-random bytes from rng.
func fillRandom(buf []byte, rng *stats.RNG) {
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

// CountingWriter counts bytes written to it; used by tests and by the search
// simulators to account for index sizes without buffering content.
type CountingWriter struct{ N int64 }

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	c.N += int64(len(p))
	return len(p), nil
}
