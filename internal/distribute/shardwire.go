package distribute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// The shard wire format serializes one ShardView as a self-contained JSON
// document, so a server can hand a worker exactly its slice of a plan
// instead of the whole plan file:
//
//	{"view": {...header...}, "records": [...chunks...], "trailer": {...}}
//
// The header carries the sealed plan header (every field of Plan that
// Fingerprint folds, including the trailer-sealed chunk count and chain
// hash, which Plan's own JSON omits) plus the shard index. The records
// stream every directory of the compact tree followed by only the shard's
// file records, sliced into the same hash-guarded chunks plan documents use
// (fsimage.Chunk), and the trailer seals that stream. Both sides buffer
// O(chunk): Encode streams straight off the view, DecodeShardView verifies
// and assembles without ever holding the serialized form whole. A decoded
// view executes exactly like one pruned out of the plan file — the plan
// fingerprint reconstructs bit-for-bit, so manifests produced against
// either are interchangeable.

// shardWireHeader is the "view" object of a shard document.
type shardWireHeader struct {
	FormatVersion int `json:"format_version"`
	Shard         int `json:"shard"`
	// PlanChunks / ImageSHA256 restore the plan's trailer-sealed fields
	// (json:"-" on Plan itself), so Fingerprint() of the decoded plan equals
	// the original's.
	PlanChunks  int    `json:"plan_chunks"`
	ImageSHA256 string `json:"image_sha256"`
	Plan        *Plan  `json:"plan"`
}

// shardWireTrailer seals a shard document's record stream.
type shardWireTrailer struct {
	Chunks        int    `json:"chunks"`
	RecordsSHA256 string `json:"records_sha256"`
}

// shardDocEncoder writes one shard document incrementally: construct it
// (which emits the header), push records through AddDir/AddFile, Close to
// seal the trailer. ShardView.Encode is this encoder fed from a retained
// view; the partitioned planner (BuildPlanFragment) feeds it straight off
// the metadata replay, so a fragment is produced with O(chunk) buffering
// and no retained file slice — and is byte-identical to the view-encoded
// form by construction.
type shardDocEncoder struct {
	bw  *bufio.Writer
	enc *fsimage.ChunkEncoder
}

func newShardDocEncoder(p *Plan, shard int, w io.Writer) (*shardDocEncoder, error) {
	bw := bufio.NewWriterSize(w, 64*1024)
	hdr, err := json.Marshal(shardWireHeader{
		FormatVersion: FormatVersion,
		Shard:         shard,
		PlanChunks:    p.Chunks,
		ImageSHA256:   p.ImageSHA256,
		Plan:          p,
	})
	if err != nil {
		return nil, fmt.Errorf("distribute: encoding shard view header: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "{\"view\":%s,\"records\":[", hdr); err != nil {
		return nil, fmt.Errorf("distribute: encoding shard view: %w", err)
	}
	return &shardDocEncoder{bw: bw, enc: fsimage.NewChunkEncoder(p.ChunkSize, chunkArrayWriter(bw, "record"))}, nil
}

// resumeAfter positions the encoder behind a directory section its caller
// wrote to bw itself (the fragment router, once for all fragments): the
// next chunk is the first file chunk, chained after dirHashes.
func (e *shardDocEncoder) resumeAfter(chunkSize int, dirHashes []string) {
	e.enc = fsimage.ResumeChunkEncoder(chunkSize, dirHashes, chunkArrayWriter(e.bw, "record"))
}

func (e *shardDocEncoder) AddDir(d fsimage.DirRecord) error { return e.enc.AddDir(d) }
func (e *shardDocEncoder) AddFile(f fsimage.File) error     { return e.enc.AddFile(f) }

// Close seals the record chunks and writes the trailer.
func (e *shardDocEncoder) Close() error {
	if err := e.enc.Close(); err != nil {
		return fmt.Errorf("distribute: %w", err)
	}
	trailer, err := json.Marshal(shardWireTrailer{Chunks: e.enc.Chunks(), RecordsSHA256: e.enc.ChainHash()})
	if err != nil {
		return fmt.Errorf("distribute: encoding shard view trailer: %w", err)
	}
	if _, err := fmt.Fprintf(e.bw, "],\"trailer\":%s}\n", trailer); err != nil {
		return fmt.Errorf("distribute: encoding shard view: %w", err)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("distribute: encoding shard view: %w", err)
	}
	return nil
}

// Encode writes the view as a self-contained shard document: header, the
// tree's directory records plus only this shard's file records streamed
// through hash-guarded chunks, sealing trailer. Peak buffering is one chunk.
func (v *ShardView) Encode(w io.Writer) error {
	e, err := newShardDocEncoder(v.Plan, v.Shard, w)
	if err != nil {
		return err
	}
	for i := range v.Tree.Dirs {
		d := &v.Tree.Dirs[i]
		if err := e.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
	}
	for _, f := range v.Files {
		if err := e.AddFile(f); err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
	}
	return e.Close()
}

// viewAssembler is the RecordSink behind DecodeShardView. The directory half
// of the stream rebuilds the compact tree through the shared TreeSink
// validation; the file half carries only the target shard's records, so it
// gets its own checks — ascending IDs within the plan's range, valid
// placement, shard membership — instead of TreeSink's whole-image density
// check, and the shard's sealed expectations stand in for whole-image
// totals.
type viewAssembler struct {
	hdr   *Plan
	shard int
	ts    *fsimage.TreeSink
	part  *namespace.Partition
	files []fsimage.File
	// onFile, when non-nil, selects streaming assembly: each validated file
	// record is handed to the callback instead of retained, so a consumer
	// (the fragment merge) processes an arbitrarily large shard with O(dirs)
	// assembler state. The finished view then carries no Files slice.
	onFile func(fsimage.File) error
	// onTree, when non-nil, fires once — as soon as the directory stream is
	// complete and the partition verified (i.e. before the first file record
	// is delivered) — handing the consumer the plan header and tree it needs
	// to start folding a digest while files are still streaming.
	onTree    func(hdr *Plan, tree *namespace.Tree) error
	lastID    int
	fileCount int
	bytes     int64
}

func newViewAssembler(hdr *Plan, shard int, onFile func(fsimage.File) error) (*viewAssembler, error) {
	if hdr.DigestAlgo != fsimage.DigestVersion {
		return nil, fmt.Errorf("distribute: plan digest algo %q, this build computes %q (%w)", hdr.DigestAlgo, fsimage.DigestVersion, fsimage.ErrPlanVersion)
	}
	if shard < 0 || shard >= len(hdr.Shards) {
		return nil, fmt.Errorf("distribute: shard %d out of range (plan has %d shards) (%w)", shard, len(hdr.Shards), fsimage.ErrInvalidSpec)
	}
	a := &viewAssembler{hdr: hdr, shard: shard, ts: fsimage.NewTreeSink(nil), onFile: onFile, lastID: -1}
	// The header is untrusted until the stream verifies: clamp the
	// preallocation so a tampered file count degrades into a failed
	// expectation check, never a gigantic allocation.
	if n := hdr.Shards[shard].Files; n > 0 && onFile == nil {
		a.files = make([]fsimage.File, 0, min(n, 1<<20))
	}
	return a, nil
}

func (a *viewAssembler) AddDir(d fsimage.DirRecord) error { return a.ts.AddDir(d) }

// ensurePartition rebuilds the partition once the directory stream is
// complete (at the first file record, or at end-of-stream for file-less
// shards).
func (a *viewAssembler) ensurePartition() error {
	if a.part != nil {
		return nil
	}
	if got := a.ts.DirCount(); got != a.hdr.Dirs {
		return fmt.Errorf("distribute: shard document carried %d directories, plan promises %d (%w)", got, a.hdr.Dirs, fsimage.ErrManifestIntegrity)
	}
	roots, err := a.hdr.validateShardTable()
	if err != nil {
		return err
	}
	part, err := namespace.PartitionFromRoots(a.ts.Tree(), roots)
	if err != nil {
		return fmt.Errorf("distribute: rebuilding partition: %w", err)
	}
	a.part = part
	if a.onTree != nil {
		onTree := a.onTree
		a.onTree = nil
		return onTree(a.hdr, a.ts.Tree())
	}
	return nil
}

// AddFile validates the next shard file record. Unlike the whole-image
// stream, shard file IDs are sparse: they must be strictly ascending and
// inside the plan's range, but not dense.
func (a *viewAssembler) AddFile(f fsimage.File) error {
	if err := a.ensurePartition(); err != nil {
		return err
	}
	tree := a.ts.Tree()
	if a.fileCount > 0 && f.ID <= a.lastID {
		return fmt.Errorf("distribute: shard file %d arrived out of order (after %d) (%w)", f.ID, a.lastID, fsimage.ErrManifestIntegrity)
	}
	if f.ID < 0 || f.ID >= a.hdr.Files {
		return fmt.Errorf("distribute: shard file %d outside the plan's %d files (%w)", f.ID, a.hdr.Files, fsimage.ErrManifestIntegrity)
	}
	if f.DirID < 0 || f.DirID >= tree.Len() {
		return fmt.Errorf("distribute: shard file %d references unknown directory %d (%w)", f.ID, f.DirID, fsimage.ErrManifestIntegrity)
	}
	if f.Size < 0 {
		return fmt.Errorf("distribute: shard file %d has negative size %d (%w)", f.ID, f.Size, fsimage.ErrManifestIntegrity)
	}
	if wantDepth := tree.Dirs[f.DirID].Depth + 1; f.Depth != wantDepth {
		return fmt.Errorf("distribute: shard file %d depth %d does not match directory depth %d (%w)", f.ID, f.Depth, wantDepth, fsimage.ErrManifestIntegrity)
	}
	if f.Name == "" || strings.ContainsAny(f.Name, "/\x00") {
		return fmt.Errorf("distribute: shard file %d has invalid name %q (%w)", f.ID, f.Name, fsimage.ErrManifestIntegrity)
	}
	if got := a.part.ShardOf(f.DirID); got != a.shard {
		return fmt.Errorf("distribute: file %d belongs to shard %d, document claims shard %d (%w)", f.ID, got, a.shard, fsimage.ErrManifestIntegrity)
	}
	a.lastID = f.ID
	a.fileCount++
	a.bytes += f.Size
	if a.onFile != nil {
		return a.onFile(f)
	}
	a.files = append(a.files, f)
	return nil
}

// finish verifies the shard's sealed expectations and assembles the view.
func (a *viewAssembler) finish() (*ShardView, error) {
	if err := a.ensurePartition(); err != nil {
		return nil, err
	}
	sp := a.hdr.Shards[a.shard]
	if len(a.part.Shards[a.shard]) != sp.Dirs || a.fileCount != sp.Files || a.bytes != sp.Bytes {
		return nil, fmt.Errorf("distribute: shard %d document carried %d dirs, %d files, %d bytes; plan promises %d, %d, %d (%w)",
			a.shard, len(a.part.Shards[a.shard]), a.fileCount, a.bytes, sp.Dirs, sp.Files, sp.Bytes, fsimage.ErrManifestIntegrity)
	}
	return &ShardView{
		Plan:                a.hdr,
		Tree:                a.ts.Tree(),
		Part:                a.part,
		Shard:               a.shard,
		Dirs:                a.part.Shards[a.shard],
		Files:               a.files,
		StreamedFileRecords: a.fileCount,
	}, nil
}

// DecodeShardView reads a shard document previously written by
// ShardView.Encode, verifying every record chunk against its integrity hash
// and the sealing trailer, and validating the shard's records against the
// embedded plan header. The decoded view executes exactly like one pruned
// from the full plan: the restored plan fingerprint is bit-identical, so
// manifests bind the same way.
func DecodeShardView(r io.Reader) (*ShardView, error) {
	return decodeShardDoc(r, nil, nil)
}

// decodeShardDoc is DecodeShardView parameterized by the assembler's
// optional callbacks: with a non-nil onFile every validated file record
// streams to it and the returned view carries the tree, partition, and plan
// header but no Files slice — the fragment merge's O(dirs) path. onTree, if
// set, fires once when the directory stream completes (see viewAssembler).
func decodeShardDoc(r io.Reader, onFile func(fsimage.File) error, onTree func(*Plan, *namespace.Tree) error) (*ShardView, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 64*1024))
	if err := expectDelim(dec, '{', "shard document"); err != nil {
		return nil, err
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("distribute: decoding shard document: %w", err)
	}
	if key, ok := tok.(string); !ok || key != "view" {
		return nil, fmt.Errorf("distribute: shard document does not start with a view header (got %v)", tok)
	}
	var hdr shardWireHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("distribute: decoding shard view header: %w", err)
	}
	if hdr.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("distribute: shard document format v%d, this build speaks v%d (%w)", hdr.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	if hdr.Plan == nil {
		return nil, fmt.Errorf("distribute: shard document carries no plan header (%w)", fsimage.ErrManifestIntegrity)
	}
	if hdr.Plan.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("distribute: plan format v%d, this build speaks v%d (%w)", hdr.Plan.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	// Restore the trailer-sealed fields Plan's own JSON omits; the
	// fingerprint manifests bind to depends on them.
	hdr.Plan.Chunks = hdr.PlanChunks
	hdr.Plan.ImageSHA256 = hdr.ImageSHA256
	asm, err := newViewAssembler(hdr.Plan, hdr.Shard, onFile)
	if err != nil {
		return nil, err
	}
	asm.onTree = onTree
	tok, err = dec.Token()
	if err != nil {
		return nil, fmt.Errorf("distribute: decoding shard document: %w", err)
	}
	if key, ok := tok.(string); !ok || key != "records" {
		return nil, fmt.Errorf("distribute: shard view header is not followed by records (got %v)", tok)
	}
	if err := expectDelim(dec, '[', "record stream"); err != nil {
		return nil, err
	}
	cdec := fsimage.NewChunkDecoder(asm)
	var c fsimage.Chunk
	for dec.More() {
		c = fsimage.Chunk{}
		if err := dec.Decode(&c); err != nil {
			return nil, fmt.Errorf("distribute: decoding record chunk %d: %w", cdec.Chunks(), err)
		}
		if err := cdec.AddChunk(&c); err != nil {
			return nil, fmt.Errorf("distribute: %w", err)
		}
	}
	if err := expectDelim(dec, ']', "record stream"); err != nil {
		return nil, err
	}
	tok, err = dec.Token()
	if err != nil {
		return nil, fmt.Errorf("distribute: decoding shard trailer: %w", err)
	}
	if key, ok := tok.(string); !ok || key != "trailer" {
		return nil, fmt.Errorf("distribute: shard records are not followed by a sealing trailer (got %v) — truncated? (%w)", tok, fsimage.ErrManifestIntegrity)
	}
	var tr shardWireTrailer
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("distribute: decoding shard trailer: %w", err)
	}
	if err := expectDelim(dec, '}', "shard document"); err != nil {
		return nil, err
	}
	if cdec.Chunks() != tr.Chunks {
		return nil, fmt.Errorf("distribute: shard trailer promises %d record chunks, stream carried %d — truncated? (%w)", tr.Chunks, cdec.Chunks(), fsimage.ErrManifestIntegrity)
	}
	if got := cdec.ChainHash(); got != tr.RecordsSHA256 {
		return nil, fmt.Errorf("distribute: shard record hash mismatch: trailer says %s, chunks chain to %s (%w)", tr.RecordsSHA256, got, fsimage.ErrManifestIntegrity)
	}
	return asm.finish()
}
