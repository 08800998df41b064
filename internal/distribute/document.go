package distribute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

// docKind names what differs between the two wire documents (see the
// package comment): three member keys, and what errors call the document.
type docKind struct {
	name  string
	head  string // key of the head object
	array string // key of the chunk array
	chain string // trailer key of the chain hash over the array's chunks
}

var (
	planDoc  = docKind{"plan", "header", "chunks", "image_sha256"}
	shardDoc = docKind{"shard document", "view", "records", "records_sha256"}
)

// docWriter writes one document incrementally: newDocWriter emits the head,
// the records pushed through AddDir/AddFile leave as hash-guarded chunks
// through one reused buffer, Close seals the trailer. Peak buffering is one
// chunk.
type docWriter struct {
	kind      docKind
	chunkSize int
	bw        *bufio.Writer
	enc       *fsimage.ChunkEncoder
	buf       []byte
}

func newDocWriter(w io.Writer, kind docKind, head any, chunkSize int) (*docWriter, error) {
	raw, err := json.Marshal(head)
	if err != nil {
		return nil, fmt.Errorf("distribute: encoding %s header: %w", kind.name, err)
	}
	d := &docWriter{kind: kind, chunkSize: chunkSize, bw: bufio.NewWriterSize(w, 64*1024)}
	d.enc = fsimage.NewChunkEncoder(chunkSize, d.emit)
	if _, err := fmt.Fprintf(d.bw, "{%q:%s,%q:[", kind.head, raw, kind.array); err != nil {
		return nil, fmt.Errorf("distribute: encoding %s: %w", kind.name, err)
	}
	return d, nil
}

// appendChunkElement appends one sealed chunk as the next element of a
// document's chunk array. fsimage renders the chunk; every document numbers
// its chunks from 0, so any later index follows a comma.
func appendChunkElement(dst []byte, c *fsimage.Chunk) ([]byte, error) {
	if c.Index > 0 {
		dst = append(dst, ',')
	}
	dst, err := c.AppendJSON(dst)
	if err != nil {
		return nil, fmt.Errorf("distribute: encoding chunk %d: %w", c.Index, err)
	}
	return dst, nil
}

func (d *docWriter) emit(c *fsimage.Chunk) (err error) {
	if d.buf, err = appendChunkElement(d.buf[:0], c); err != nil {
		return err
	}
	_, err = d.bw.Write(d.buf)
	return err
}

// resumeAfter positions the writer behind a directory section its caller
// rendered and wrote to bw itself (the fragment router, once for all
// fragments): the next chunk is the first file chunk, chained after
// dirHashes.
func (d *docWriter) resumeAfter(dirHashes []string) {
	d.enc = fsimage.ResumeChunkEncoder(d.chunkSize, dirHashes, d.emit)
}

func (d *docWriter) AddDir(r fsimage.DirRecord) error { return d.enc.AddDir(r) }
func (d *docWriter) AddFile(f fsimage.File) error     { return d.enc.AddFile(f) }

// Close seals the last chunk and the document, and returns what the trailer
// records: the chunk count and the chain hash.
func (d *docWriter) Close() (chunks int, chain string, err error) {
	if err = d.enc.Close(); err == nil {
		chunks, chain = d.enc.Chunks(), d.enc.ChainHash()
		if _, err = fmt.Fprintf(d.bw, "],\"trailer\":{\"chunks\":%d,%q:%q}}\n", chunks, d.kind.chain, chain); err == nil {
			err = d.bw.Flush()
		}
	}
	if err != nil {
		return 0, "", fmt.Errorf("distribute: encoding %s: %w", d.kind.name, err)
	}
	return chunks, chain, nil
}

// writeDocument writes a whole document around one replay of its records.
func writeDocument(w io.Writer, kind docKind, head any, chunkSize int, replay func(fsimage.RecordSink) error) (chunks int, chain string, err error) {
	d, err := newDocWriter(w, kind, head, chunkSize)
	if err != nil {
		return 0, "", err
	}
	if err := replay(d); err != nil {
		return 0, "", err
	}
	return d.Close()
}

// readDocument is the one reader of wire documents. It walks the envelope,
// decodes the head and holds its plan header to checkHeader, asks open for
// the sink the records go to (once, with the checked header and the shard a
// shard document embeds, -1 for a plan document), verifies every chunk's
// hash and replays its records into that sink, verifies chunk count and
// chain against the trailer, and requires the input to end after the
// closing brace. It returns the plan header with its trailer-sealed fields
// restored.
//
// Whatever keeps the input from reading as a document of this shape — bad
// JSON, a misplaced or missing member, a failed hash, an early or late end —
// is damage to the artifact and wraps ErrManifestIntegrity; a header from
// another version wraps ErrPlanVersion. What the sink answers passes through
// as it is: the record sinks of this package and fsimage type their own
// rejections, and a sink's failed write or cancelled context is not a
// verdict on the document.
func readDocument(r io.Reader, kind docKind, open func(hdr *Plan, shard int) (fsimage.RecordSink, error)) (*Plan, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 64*1024))
	damaged := func(format string, a ...any) error {
		return fmt.Errorf("distribute: %s: %s (%w)", kind.name, fmt.Sprintf(format, a...), fsimage.ErrManifestIntegrity)
	}
	// next requires the next token to be want: a delimiter or a member key.
	next := func(want json.Token) error {
		if tok, err := dec.Token(); err != nil {
			return damaged("expected %q: %v", fmt.Sprint(want), err)
		} else if tok != want {
			return damaged("expected %q, got %q", fmt.Sprint(want), fmt.Sprint(tok))
		}
		return nil
	}
	value := func(what string, v any) error {
		if err := dec.Decode(v); err != nil {
			return damaged("decoding %s: %v", what, err)
		}
		return nil
	}

	if err := next(json.Delim('{')); err != nil {
		return nil, err
	}
	if err := next(kind.head); err != nil {
		return nil, err
	}
	p, shard := new(Plan), -1
	if kind == shardDoc {
		var hdr shardWireHeader
		if err := value("view header", &hdr); err != nil {
			return nil, err
		}
		if hdr.FormatVersion != FormatVersion {
			return nil, fmt.Errorf("distribute: shard document format v%d, this build speaks v%d (%w)", hdr.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
		}
		if hdr.Plan == nil {
			return nil, damaged("the view carries no plan header")
		}
		// Restore the trailer-sealed fields Plan's own JSON omits; the
		// fingerprint manifests bind to depends on them.
		p, shard = hdr.Plan, hdr.Shard
		p.Chunks, p.ImageSHA256 = hdr.PlanChunks, hdr.ImageSHA256
	} else if err := value("header", p); err != nil {
		return nil, err
	}
	if err := checkHeader(p); err != nil {
		return nil, err
	}
	sink, err := open(p, shard)
	if err != nil {
		return nil, err
	}

	if err := next(kind.array); err != nil {
		return nil, err
	}
	if err := next(json.Delim('[')); err != nil {
		return nil, err
	}
	cdec := fsimage.NewChunkDecoder(sink)
	var c fsimage.Chunk
	for dec.More() {
		c = fsimage.Chunk{}
		if err := dec.Decode(&c); err != nil {
			return nil, damaged("decoding chunk %d: %v", cdec.Chunks(), err)
		}
		if err := cdec.AddChunk(&c); err != nil {
			return nil, err
		}
	}
	if err := next(json.Delim(']')); err != nil {
		return nil, err
	}
	if err := next("trailer"); err != nil {
		return nil, err
	}
	var trailer map[string]any
	if err := value("trailer", &trailer); err != nil {
		return nil, err
	}
	if err := next(json.Delim('}')); err != nil {
		return nil, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return nil, damaged("input goes on after the closing brace (%v, %v)", tok, err)
	}
	if n := cdec.Chunks(); trailer["chunks"] != float64(n) {
		return nil, damaged("trailer promises %v chunks, the stream carried %d — truncated?", trailer["chunks"], n)
	}
	if chain := cdec.ChainHash(); trailer[kind.chain] != chain {
		return nil, damaged("chain hash mismatch: trailer says %v, chunks chain to %s", trailer[kind.chain], chain)
	}
	if kind == planDoc {
		p.Chunks, p.ImageSHA256 = cdec.Chunks(), cdec.ChainHash()
	}
	return p, nil
}

// checkHeader is the one check of a plan header, run on every header a
// document carries and on every plan Open is asked to open: a format
// version, digest algorithm, content kind and content stream this build
// executes (anything else is ErrPlanVersion), and counts that can describe
// an image — at least the root directory, nothing negative, a dense ordered
// non-empty shard table whose expectations sum to the totals (anything else
// is ErrManifestIntegrity). No count is trusted for an allocation before
// the stream bears it out; what it buys is that a header that contradicts
// itself is refused before a single record is read.
func checkHeader(p *Plan) error {
	if p.FormatVersion != FormatVersion {
		return fmt.Errorf("distribute: plan format v%d, this build speaks v%d (%w)", p.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	if p.DigestAlgo != fsimage.DigestVersion {
		return fmt.Errorf("distribute: plan digest algo %q, this build computes %q (%w)", p.DigestAlgo, fsimage.DigestVersion, fsimage.ErrPlanVersion)
	}
	if !content.Kind(p.ContentKind).Known() {
		return fmt.Errorf("distribute: plan content kind %q is not one this build generates (%w)", p.ContentKind, fsimage.ErrPlanVersion)
	}
	if p.Dirs < 1 || p.Files < 0 || p.Bytes < 0 || len(p.Shards) == 0 {
		return fmt.Errorf("distribute: plan header describes no image: %d dirs, %d files, %d bytes, %d shards (%w)",
			p.Dirs, p.Files, p.Bytes, len(p.Shards), fsimage.ErrManifestIntegrity)
	}
	sums := func() error {
		return fmt.Errorf("distribute: the shard table's expectations do not sum to the plan's %d dirs, %d files, %d bytes (%w)",
			p.Dirs, p.Files, p.Bytes, fsimage.ErrManifestIntegrity)
	}
	dirs, files, bytes := p.Dirs, p.Files, p.Bytes
	for i, s := range p.Shards {
		if s.Index != i {
			return fmt.Errorf("distribute: shard %d recorded with index %d (%w)", i, s.Index, fsimage.ErrManifestIntegrity)
		}
		if err := validateShardStreamKey(p, i); err != nil {
			return err
		}
		if s.Dirs < 0 || s.Dirs > dirs || s.Files < 0 || s.Files > files || s.Bytes < 0 || s.Bytes > bytes {
			return sums()
		}
		dirs, files, bytes = dirs-s.Dirs, files-s.Files, bytes-s.Bytes
	}
	if dirs != 0 || files != 0 || bytes != 0 {
		return sums()
	}
	return nil
}

// validateShardStreamKey checks that this build derives the content stream
// the plan's shard records: the plan's key is authoritative, and a worker
// must refuse it rather than silently write bytes from a different stream.
func validateShardStreamKey(p *Plan, shard int) error {
	sp := p.Shards[shard]
	key, err := stats.ParseStreamKey(sp.StreamKey)
	if err != nil {
		return fmt.Errorf("distribute: shard %d stream key: %v (%w)", shard, err, fsimage.ErrPlanVersion)
	}
	want := stats.DeriveSeed(p.Seed, fsimage.MaterializeStreamLabel)
	if got := key.Apply(p.Seed); got != want {
		return fmt.Errorf("distribute: shard %d stream key %q derives seed %d; this build's content stream derives %d — plan is from an incompatible version (%w)",
			shard, sp.StreamKey, got, want, fsimage.ErrPlanVersion)
	}
	return nil
}

// checkShard reports a shard index the plan does not have: the caller's
// mistake when it asked for the shard, and filed the same way when a shard
// document names it.
func (p *Plan) checkShard(shard int) error {
	if shard < 0 || shard >= len(p.Shards) {
		return fmt.Errorf("distribute: shard %d out of range (plan has %d shards) (%w)", shard, len(p.Shards), fsimage.ErrInvalidSpec)
	}
	return nil
}

// shardRoots returns the shard table's cut-set roots, shard by shard.
func (p *Plan) shardRoots() [][]int {
	roots := make([][]int, len(p.Shards))
	for i, s := range p.Shards {
		roots[i] = s.Roots
	}
	return roots
}
