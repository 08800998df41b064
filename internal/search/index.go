// Package search implements two simulated desktop-search engines used by the
// paper's case study (§4): BeagleSim stands in for the open-source Beagle
// indexer and GDLSim for Google Desktop for Linux. Both crawl a generated
// file-system image, apply their documented indexing policies (depth cutoffs,
// per-type size cutoffs, filter sets), tokenize generated content into a real
// inverted index, and report index size and simulated indexing time. The
// engines exist so that the image-sensitivity experiments of Figures 6, 7 and
// 8 can be reproduced without the originals: Google Desktop for Linux was
// closed-source and is discontinued, and Beagle is no longer maintained.
package search

// InvertedIndex is a term -> postings-count index with enough bookkeeping to
// estimate its serialized size. It deliberately models only what the case
// study measures: how index size responds to file content and indexing
// policy.
type InvertedIndex struct {
	// postings maps term -> occurrence counter. Counters are boxed so the
	// hot path (an existing term seen again) is a pure map read — Go compiles
	// map reads keyed by string(bytes) without materializing the string, so
	// only the first occurrence of each distinct term allocates.
	postings map[string]*int64
	// positional indicates term positions are stored (larger postings).
	positional bool
	// bytesPerPosting is the estimated serialized size of one posting entry.
	bytesPerPosting float64
	// attributeBytes accounts for per-document metadata (name, mtime, ...).
	attributeBytes int64
	// cacheBytes accounts for stored text-cache snippets (Beagle TextCache).
	cacheBytes int64
}

// NewInvertedIndex returns an empty index. Positional indexes store term
// positions and therefore use more bytes per posting.
func NewInvertedIndex(positional bool) *InvertedIndex {
	// Posting sizes reflect compressed on-disk postings: a delta-encoded
	// docID costs well under a byte per occurrence amortized, positions
	// roughly double that.
	bpp := 0.5
	if positional {
		bpp = 1.2
	}
	return &InvertedIndex{
		postings:        make(map[string]*int64),
		positional:      positional,
		bytesPerPosting: bpp,
	}
}

// AddTerm records one occurrence of a term.
func (ix *InvertedIndex) AddTerm(term string) {
	if term == "" {
		return
	}
	if p, ok := ix.postings[term]; ok {
		*p++
		return
	}
	one := int64(1)
	ix.postings[term] = &one
}

// AddTermBytes records one occurrence of the term held in b without
// allocating when the term is already known: the map lookup keyed by
// string(b) does not escape, and the counter is incremented through its
// pointer.
func (ix *InvertedIndex) AddTermBytes(b []byte) {
	if len(b) == 0 {
		return
	}
	if p, ok := ix.postings[string(b)]; ok {
		*p++
		return
	}
	one := int64(1)
	ix.postings[string(b)] = &one
}

// AddDocument records per-document attribute overhead (file name, metadata).
func (ix *InvertedIndex) AddDocument(attrBytes int64) {
	ix.attributeBytes += attrBytes
}

// AddCache records stored text-cache bytes for snippet display.
func (ix *InvertedIndex) AddCache(n int64) { ix.cacheBytes += n }

// Terms returns the number of distinct terms.
func (ix *InvertedIndex) Terms() int { return len(ix.postings) }

// Postings returns the total number of postings.
func (ix *InvertedIndex) Postings() int64 {
	var total int64
	for _, n := range ix.postings {
		total += *n
	}
	return total
}

// SizeBytes estimates the serialized size of the index: the term dictionary,
// the posting lists, per-document attributes, and any text cache.
func (ix *InvertedIndex) SizeBytes() int64 {
	var dict int64
	for term := range ix.postings {
		dict += int64(len(term)) + 12 // term bytes + dictionary entry overhead
	}
	postings := int64(float64(ix.Postings()) * ix.bytesPerPosting)
	return dict + postings + ix.attributeBytes + ix.cacheBytes
}

// tokenizingWriter feeds written bytes through a simple whitespace/punctuation
// tokenizer straight into an index, so content can be generated and indexed
// without buffering whole files.
type tokenizingWriter struct {
	ix      *InvertedIndex
	current []byte
	written int64
}

func newTokenizingWriter(ix *InvertedIndex) *tokenizingWriter {
	return &tokenizingWriter{ix: ix}
}

// Write implements io.Writer.
func (t *tokenizingWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if isWordByte(b) {
			if len(t.current) < 64 {
				t.current = append(t.current, toLower(b))
			}
		} else if len(t.current) > 0 {
			t.ix.AddTermBytes(t.current)
			t.current = t.current[:0]
		}
	}
	t.written += int64(len(p))
	return len(p), nil
}

// Flush indexes any trailing partial token.
func (t *tokenizingWriter) Flush() {
	if len(t.current) > 0 {
		t.ix.AddTermBytes(t.current)
		t.current = t.current[:0]
	}
}

// reset prepares the writer for the next document, keeping its token buffer.
func (t *tokenizingWriter) reset() {
	t.current = t.current[:0]
	t.written = 0
}

func isWordByte(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func toLower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}
