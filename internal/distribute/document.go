package distribute

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/jsonscan"
)

// shardWireHeader is the "view" object of a shard document.
type shardWireHeader struct {
	FormatVersion int   `json:"format_version"`
	Shard         int   `json:"shard"`
	Plan          *Plan `json:"plan"`
}

// docWriter writes one document incrementally: newDocWriter emits the head,
// the records pushed through AddDir/AddFile leave as hash-guarded chunks,
// sealed and rendered a piece at a time by the build's sealer, closing the
// encoder waits for the last of them, and Close writes the trailer. The
// writer buffers the records of the piece it is filling; the pieces in
// flight, their records and renderings, are the sealer's, one ring of them
// across every writer of the build.
type docWriter struct {
	bw  *bufio.Writer
	enc *fsimage.ChunkEncoder
}

// newDocWriter starts shard's document of plan p.
func newDocWriter(w io.Writer, p *Plan, shard int, sealer *fsimage.ChunkSealer) (*docWriter, error) {
	raw, err := json.Marshal(shardWireHeader{FormatVersion: FormatVersion, Shard: shard, Plan: p})
	if err != nil {
		return nil, fmt.Errorf("distribute: encoding shard document header: %w", err)
	}
	d := &docWriter{bw: bufio.NewWriterSize(w, 64*1024)}
	d.enc = sealer.Encoder(p.ChunkSize, d.emit)
	if _, err := fmt.Fprintf(d.bw, `{"view":%s,"records":[`, raw); err != nil {
		return nil, fmt.Errorf("distribute: encoding shard document: %w", err)
	}
	return d, nil
}

// emit writes the next piece of the chunk array. Every document numbers its
// chunks from 0, so a chunk with a later index follows a comma. It runs on
// whichever goroutine runs the sealer's ordered tail, one piece at a time.
// A piece that does not fit the buffer's free space follows what the buffer
// holds, written out first, and a piece at least the buffer's size is
// written from where it is, not copied.
func (d *docWriter) emit(p *fsimage.ChunkPiece) error {
	if p.First && p.Index > 0 {
		if err := d.bw.WriteByte(','); err != nil {
			return err
		}
	}
	if len(p.JSON) > d.bw.Available() {
		if err := d.bw.Flush(); err != nil {
			return err
		}
	}
	_, err := d.bw.Write(p.JSON)
	return err
}

func (d *docWriter) AddDir(r fsimage.DirRecord) error { return d.enc.AddDir(r) }
func (d *docWriter) AddFile(f fsimage.File) error     { return d.enc.AddFile(f) }

// Close writes the trailer, once the encoder is closed: the chunk count and
// the plan's chains, whose entry for this document is its encoder's chain
// hash. It flushes the document.
func (d *docWriter) Close(chains []string) error {
	raw, err := json.Marshal(chains)
	if err == nil {
		if _, err = fmt.Fprintf(d.bw, "],\"trailer\":{\"chunks\":%d,\"chains\":%s}}\n", d.enc.Chunks(), raw); err == nil {
			err = d.bw.Flush()
		}
	}
	if err != nil {
		return fmt.Errorf("distribute: encoding shard document: %w", err)
	}
	return nil
}

// readDocument is the one reader of shard documents, and takes them only
// as docWriter writes them, byte for byte. It reads the envelope's literal
// text with a jsonscan.Scanner, decodes the view with encoding/json (which
// must marshal back to the bytes read) and holds its plan header to
// checkHeader, asks open for the sink the records go to (once, with the
// checked header and the shard the document embeds), reads every chunk
// with an fsimage.ChunkReader, requires it to be cut where the writer cuts
// one and hands it to a ChunkDecoder, which verifies its hash and replays
// its records into that sink, decodes the trailer as it does the view,
// verifies the chunk count against the trailer and the chain the chunks
// make against the trailer's entry for the shard in a list of one chain
// per shard, requires the input to end after the closing brace and its
// newline, and only then seals the header with the trailer's chains. It
// returns the chain of the directory section, equal in every fragment of
// a plan: the chain before the first chunk of files.
//
// Whatever keeps the input from reading as a document of this shape — bytes
// the writer does not write, a failed hash, an early or late end — is
// damage to the artifact and wraps ErrManifestIntegrity; a header from
// another version wraps ErrPlanVersion. What the sink answers passes through
// as it is: the record sinks of this package and fsimage type their own
// rejections, and a sink's failed write or cancelled context is not a
// verdict on the document.
func readDocument(r io.Reader, open func(hdr *Plan, shard int) (fsimage.RecordSink, error)) (string, error) {
	s := jsonscan.New(bufio.NewReaderSize(r, 64*1024))
	damaged := func(format string, a ...any) error {
		return fmt.Errorf("distribute: shard document: %s (%w)", fmt.Sprintf(format, a...), fsimage.ErrManifestIntegrity)
	}
	s.Lit("{")
	s.Lit(`"view":`)
	var hdr shardWireHeader
	// Another version's view is not this writer's either: its version,
	// where encoding/json finds one, is the verdict.
	if s.Value(&hdr) && hdr.FormatVersion != FormatVersion {
		return "", fmt.Errorf("distribute: shard document format v%d, this build speaks v%d (%w)", hdr.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	if err := s.Err(); err != nil {
		return "", damaged("decoding the view: %v", err)
	}
	p := hdr.Plan
	if p == nil {
		return "", damaged("the view carries no plan header")
	}
	if err := checkHeader(p); err != nil {
		return "", err
	}
	sink, err := open(p, hdr.Shard)
	if err != nil {
		return "", err
	}

	s.Lit(`,"records":[`)
	cdec := fsimage.NewChunkDecoder(sink)
	chunks := fsimage.NewChunkReader(s)
	var dirChain string
	// The writer cuts each half of the stream, directories then files, into
	// chunks of p.ChunkSize records, but for the last of the half.
	var short [2]bool // a half's last chunk has come
	for more := !s.Opt("]"); more; more = s.Next() {
		c, err := chunks.Read()
		if err != nil {
			return "", damaged("decoding chunk %d: %v", cdec.Chunks(), err)
		}
		half, n := 0, len(c.Dirs)
		if n == 0 {
			half, n = 1, len(c.Files)
		}
		if n == 0 || n > p.ChunkSize || short[half] {
			return "", damaged("chunk %d holds %d records, where the writer cuts chunks of %d", c.Index, n, p.ChunkSize)
		}
		short[half] = n < p.ChunkSize
		if dirChain == "" && len(c.Files) > 0 {
			dirChain = cdec.ChainHash()
		}
		if err := cdec.AddChunk(c); err != nil {
			return "", err
		}
	}
	s.Lit(`,"trailer":`)
	var trailer struct {
		Chunks int      `json:"chunks"`
		Chains []string `json:"chains"`
	}
	s.Value(&trailer)
	s.Lit("}\n")
	s.End()
	if err := s.Err(); err != nil {
		return "", damaged("%v", err)
	}
	if n := cdec.Chunks(); trailer.Chunks != n {
		return "", damaged("the trailer does not promise the %d chunks the stream carried — truncated?", n)
	}
	if len(trailer.Chains) != len(p.Shards) {
		return "", damaged("the trailer seals %d fragments, the plan has %d shards", len(trailer.Chains), len(p.Shards))
	}
	chain := cdec.ChainHash()
	if hdr.Shard < 0 || hdr.Shard >= len(p.Shards) || trailer.Chains[hdr.Shard] != chain {
		return "", damaged("chain hash mismatch: the chunks chain to %s, not to the trailer's chain of shard %d", chain, hdr.Shard)
	}
	p.Chains = trailer.Chains
	return cmp.Or(dirChain, chain), nil
}

// checkHeader is the one check of a plan header, run on every header a
// document carries and on every header Merge and ManifestCheck are handed:
// a format version, digest algorithm, content kind and content stream this
// build executes (anything else is ErrPlanVersion), and counts that can
// describe an image — at least the root directory, nothing negative, a dense
// ordered non-empty shard table whose expectations sum to the totals, and
// chunks of at least one record (anything else is ErrManifestIntegrity). No count is trusted for an allocation before
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
	if p.Dirs < 1 || p.Files < 0 || p.Bytes < 0 || len(p.Shards) == 0 || p.ChunkSize < 1 {
		return fmt.Errorf("distribute: plan header describes no image: %d dirs, %d files, %d bytes, %d shards, chunks of %d records (%w)",
			p.Dirs, p.Files, p.Bytes, len(p.Shards), p.ChunkSize, fsimage.ErrManifestIntegrity)
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

// validateShardStreamKey checks that the plan's shard names the content
// stream this build derives: a worker must refuse any other tag rather than
// silently write bytes from a different stream.
func validateShardStreamKey(p *Plan, shard int) error {
	if key := p.Shards[shard].StreamKey; key != contentStreamKey {
		return fmt.Errorf("distribute: shard %d stream key %q is not this build's content stream %q — plan is from an incompatible version (%w)",
			shard, key, contentStreamKey, fsimage.ErrPlanVersion)
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
