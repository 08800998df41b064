package content

import (
	"encoding/binary"
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
// into a pooled 32 KB buffer — by the model's own block filler when it has
// one (HybridModel), else one AppendWord call at a time — and line-wrapping
// decisions are amortized over whole blocks, so steady-state text
// generation performs zero allocations.
type TextGenerator struct {
	Model WordModel
}

// NewTextGenerator returns a text generator over the given word model.
func NewTextGenerator(model WordModel) *TextGenerator { return &TextGenerator{Model: model} }

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
func fillBlockGeneric(m WordModel, buf []byte, limit, lineLen int, rng *stats.RNG) ([]byte, int) {
	for len(buf) < limit {
		wordStart := len(buf)
		if lineLen > 0 {
			buf = append(buf, ' ') // provisional; may become '\n'
		}
		buf = m.AppendWord(buf, rng)
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
			buf, lineLen = fillBlockGeneric(g.Model, buf, limit, lineLen, rng)
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

// fillRandom fills buf with deterministic pseudo-random bytes from rng: each
// draw is eight little-endian bytes, and a tail of fewer than eight takes the
// low bytes of one more draw. Four draws per iteration run side by side,
// with the generator state in a local for the whole buffer.
func fillRandom(buf []byte, rng *stats.RNG) {
	st := rng.State()
	var a, b, c, d uint64
	i := 0
	for ; i+32 <= len(buf); i += 32 {
		st, a = st.Next()
		st, b = st.Next()
		st, c = st.Next()
		st, d = st.Next()
		w := buf[i : i+32 : i+32]
		binary.LittleEndian.PutUint64(w[0:], a)
		binary.LittleEndian.PutUint64(w[8:], b)
		binary.LittleEndian.PutUint64(w[16:], c)
		binary.LittleEndian.PutUint64(w[24:], d)
	}
	for ; i+8 <= len(buf); i += 8 {
		st, a = st.Next()
		binary.LittleEndian.PutUint64(buf[i:], a)
	}
	if i < len(buf) {
		st, a = st.Next()
		for ; i < len(buf); i++ {
			buf[i] = byte(a)
			a >>= 8
		}
	}
	rng.SetState(st)
}

// CountingWriter counts bytes written to it; used by tests and by the search
// simulators to account for index sizes without buffering content.
type CountingWriter struct{ N int64 }

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	c.N += int64(len(p))
	return len(p), nil
}
