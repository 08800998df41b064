package distribute

import (
	"bufio"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/jsonscan"
)

// FileDigest records one written file in a shard manifest.
type FileDigest struct {
	// ID is the file's index in the plan's image.
	ID int `json:"id"`
	// Size is the file's size in bytes.
	Size int64 `json:"size"`
	// SHA256 is the hex content hash (empty in metadata-only runs).
	SHA256 string `json:"sha256,omitempty"`
}

// Manifest is a worker's proof of work for one shard: what it wrote, and
// the hashes that let the merge step verify it without re-reading a byte.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// PlanFingerprint binds the manifest to the exact plan it executed.
	PlanFingerprint string `json:"plan_fingerprint"`
	Shard           int    `json:"shard"`
	Dirs            int    `json:"dirs"`
	Files           int    `json:"files"`
	Bytes           int64  `json:"bytes"`
	// ContentHashed is false for metadata-only runs, where no content exists
	// to hash; merged digests are then unavailable.
	ContentHashed bool         `json:"content_hashed"`
	FileDigests   []FileDigest `json:"file_digests"`
	// ManifestSHA256 is a self-integrity hash over all fields above; Merge
	// recomputes it and rejects any manifest that was altered in transit.
	ManifestSHA256 string `json:"manifest_sha256"`
}

// manifestFlushBytes is how many rendered lines selfHash gathers before one
// hash.Write.
const manifestFlushBytes = 32 << 10

// selfHash computes the manifest's integrity hash over its header line and
// one "<id> <size> <sha256>" line per file.
func (m *Manifest) selfHash() string {
	h := sha256.New()
	// One buffer for all the lines: flushed when full, sized for a small
	// manifest when the manifest is small, with room for one more line.
	buf := make([]byte, 0, min(manifestFlushBytes, 96*len(m.FileDigests))+512)
	buf = append(buf, "impressions-manifest-v"...)
	buf = strconv.AppendInt(buf, int64(m.FormatVersion), 10)
	buf = append(buf, "\nplan:"...)
	buf = append(buf, m.PlanFingerprint...)
	buf = append(buf, "\nshard:"...)
	buf = strconv.AppendInt(buf, int64(m.Shard), 10)
	buf = append(buf, " dirs:"...)
	buf = strconv.AppendInt(buf, int64(m.Dirs), 10)
	buf = append(buf, " files:"...)
	buf = strconv.AppendInt(buf, int64(m.Files), 10)
	buf = append(buf, " bytes:"...)
	buf = strconv.AppendInt(buf, m.Bytes, 10)
	buf = append(buf, " hashed:"...)
	buf = strconv.AppendBool(buf, m.ContentHashed)
	buf = append(buf, '\n')
	for _, fd := range m.FileDigests {
		buf = strconv.AppendInt(buf, int64(fd.ID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, fd.Size, 10)
		buf = append(buf, ' ')
		buf = append(buf, fd.SHA256...)
		buf = append(buf, '\n')
		if len(buf) >= manifestFlushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// Seal fills in the manifest's self-integrity hash.
func (m *Manifest) Seal() { m.ManifestSHA256 = m.selfHash() }

// VerifySelf checks the manifest's self-integrity hash.
func (m *Manifest) VerifySelf() error {
	if m.ManifestSHA256 == "" {
		return fmt.Errorf("distribute: shard %d manifest is unsealed (%w)", m.Shard, fsimage.ErrManifestIntegrity)
	}
	if got := m.selfHash(); got != m.ManifestSHA256 {
		return fmt.Errorf("distribute: shard %d manifest failed its integrity check (recorded %s, recomputed %s) — tampered or truncated (%w)",
			m.Shard, m.ManifestSHA256, got, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// Encode writes the manifest as JSON in one write, byte for byte what
// json.NewEncoder(w).Encode(m) writes, trailing newline included
// (FuzzManifestReader holds it to that).
func (m *Manifest) Encode(w io.Writer) error {
	if _, err := w.Write(m.appendJSON(make([]byte, 0, 512+112*len(m.FileDigests)))); err != nil {
		return fmt.Errorf("distribute: encoding manifest: %w", err)
	}
	return nil
}

// appendJSON appends the manifest's JSON line, the writing counterpart of
// read: integers and booleans appended directly, strings through
// jsonscan.AppendString, a nil FileDigests as null and an empty SHA256
// left out, as encoding/json renders them.
func (m *Manifest) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"format_version":`...)
	dst = strconv.AppendInt(dst, int64(m.FormatVersion), 10)
	dst = append(dst, `,"plan_fingerprint":`...)
	dst = jsonscan.AppendString(dst, m.PlanFingerprint)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(m.Shard), 10)
	dst = append(dst, `,"dirs":`...)
	dst = strconv.AppendInt(dst, int64(m.Dirs), 10)
	dst = append(dst, `,"files":`...)
	dst = strconv.AppendInt(dst, int64(m.Files), 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendInt(dst, m.Bytes, 10)
	dst = append(dst, `,"content_hashed":`...)
	dst = strconv.AppendBool(dst, m.ContentHashed)
	dst = append(dst, `,"file_digests":`...)
	if m.FileDigests == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, fd := range m.FileDigests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(fd.ID), 10)
			dst = append(dst, `,"size":`...)
			dst = strconv.AppendInt(dst, fd.Size, 10)
			if fd.SHA256 != "" {
				dst = append(dst, `,"sha256":`...)
				dst = jsonscan.AppendString(dst, fd.SHA256)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"manifest_sha256":`...)
	dst = jsonscan.AppendString(dst, m.ManifestSHA256)
	return append(dst, "}\n"...)
}

// DecodeManifest is the one reader of manifests, and takes them only as
// Encode writes them, byte for byte, trailing newline included: the bytes
// a worker uploads and the file it writes. Any other input is a damaged
// artifact.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	s := jsonscan.New(bufio.NewReaderSize(r, 64*1024))
	var m Manifest
	m.read(s)
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("distribute: decoding manifest: %v (%w)", err, fsimage.ErrManifestIntegrity)
	}
	return &m, nil
}

// read replays appendJSON as reads into m, whose file digests grow as they
// arrive, and requires the input to end after it.
func (m *Manifest) read(s *jsonscan.Scanner) {
	s.Lit(`{"format_version":`)
	s.Int(&m.FormatVersion)
	s.Lit(`,"plan_fingerprint":`)
	s.String(&m.PlanFingerprint)
	s.Lit(`,"shard":`)
	s.Int(&m.Shard)
	s.Lit(`,"dirs":`)
	s.Int(&m.Dirs)
	s.Lit(`,"files":`)
	s.Int(&m.Files)
	s.Lit(`,"bytes":`)
	s.Int64(&m.Bytes)
	s.Lit(`,"content_hashed":`)
	s.Bool(&m.ContentHashed)
	switch {
	case s.Opt(`,"file_digests":null`):
	case s.Opt(`,"file_digests":[]`):
		m.FileDigests = []FileDigest{}
	default:
		s.Lit(`,"file_digests":[`)
		for more := true; more; more = s.Next() {
			m.FileDigests = jsonscan.Append(m.FileDigests)
			fd := &m.FileDigests[len(m.FileDigests)-1]
			s.Lit(`{"id":`)
			s.Int(&fd.ID)
			s.Lit(`,"size":`)
			s.Int64(&fd.Size)
			if s.Opt(`,"sha256":`) {
				if s.String(&fd.SHA256); fd.SHA256 == "" {
					s.Fail("an empty sha256, which the writer leaves out")
				}
			}
			s.Lit("}")
		}
	}
	s.Lit(`,"manifest_sha256":`)
	s.String(&m.ManifestSHA256)
	s.Lit("}\n")
	s.End()
}

// decodeJSONArtifact reads a fragment index, which must be all of r: input
// that does not parse, stops early or goes on after the object is a damaged
// artifact.
func decodeJSONArtifact(r io.Reader, what string, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("distribute: decoding %s: %v (%w)", what, err, fsimage.ErrManifestIntegrity)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("distribute: decoding %s: input goes on after the object (%v, %v) (%w)", what, tok, err, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) { return loadFile(path, DecodeManifest) }

// WorkerOptions controls one shard execution.
type WorkerOptions struct {
	// MetadataOnly creates correctly sized but empty files (no content, no
	// content hashes).
	MetadataOnly bool
	// Parallelism is the number of workers generating (and, for a directory
	// target, writing) files within this shard; 0 selects runtime.NumCPU().
	// As everywhere else, the written bytes are identical at every level.
	Parallelism int
	// JournalPath, when set, makes a directory execution resumable: each
	// BatchFiles files' digests are sealed into this append-only journal
	// once all are written, and an execution that finds a journal for
	// the same (plan, shard) skips the prefix it proves — after checking
	// every such file on disk (present, regular, exact size). A journal that
	// fails any check is discarded and the shard restarts. Delete the
	// journal once the manifest is committed downstream.
	JournalPath string
	// BatchFiles is the journal's flush granularity (0 selects
	// DefaultJournalBatch).
	BatchFiles int
	// FailAfterFiles > 0 aborts a directory execution with
	// ErrSimulatedCrash once that many files have been written by THIS
	// attempt (resumed files do not count) — the deterministic mid-shard
	// fault the fleet drills inject.
	FailAfterFiles int
}

// Target is where Execute sends a shard's bytes: DirTarget or TarTarget.
type Target struct {
	dir string
	tar io.Writer
}

// DirTarget materializes the shard as real files under outRoot. Shards
// from different workers may share outRoot (subtrees are disjoint) or use
// separate roots that are later combined; the bytes are identical either way.
func DirTarget(outRoot string) Target { return Target{dir: outRoot} }

// TarTarget serializes the shard as a tar segment onto w, from w's offset
// (each chunk at its place when w can seek, in order otherwise);
// StitchPlanTar merges the segments into the byte-identical monolithic
// archive. TarTarget(io.Discard) writes nowhere and only proves the content:
// the manifest is the one a worker that keeps its bytes seals.
func TarTarget(w io.Writer) Target { return Target{tar: w} }

// ShardResult reports one shard execution.
type ShardResult struct {
	Manifest *Manifest
	// ResumedFiles is how many files a journal proved done and the execution
	// skipped; WrittenFiles is how many this attempt wrote.
	ResumedFiles int
	WrittenFiles int
}

// ErrSimulatedCrash reports an execution aborted by FailAfterFiles. The
// fleet worker CLI converts it into a SIGKILL of its own process, so the
// daemon observes a real worker death.
var ErrSimulatedCrash = errors.New("distribute: simulated worker crash (fail-after-files)")

// Execute runs one shard: it sends the bytes of the view's directories and
// files to the target and returns the sealed manifest, which is identical
// for every target, parallelism and resume history. It reads nothing but
// the view — no state is shared with other workers, so any number of
// executions may run concurrently in one process, in N processes, or on N
// machines. ctx cancels between files; what is already written stays (a
// staging directory or the journal is the caller's clean-up).
func Execute(ctx context.Context, v *ShardView, target Target, opts WorkerOptions) (*ShardResult, error) {
	if err := validateShardStreamKey(v.Plan, v.Shard); err != nil {
		return nil, err
	}
	// Digest slots are per shard record, so a pruned worker's buffers scale
	// with its shard, never the image. They stay empty with MetadataOnly.
	// Both targets report v.Files in order, one OnDigest call each, so a
	// counter fills them; a journal resume replays the prefix it proves
	// through the same call.
	digests := make([]string, len(v.Files))
	next := 0
	mopts := fsimage.MaterializeOptions{
		Registry:     content.NewRegistry(content.Kind(v.Plan.ContentKind)),
		Seed:         v.Plan.Seed,
		MetadataOnly: opts.MetadataOnly,
		Parallelism:  opts.Parallelism,
		Context:      ctx,
		OnDigest:     func(_ fsimage.File, sum string) { digests[next] = sum; next++ },
	}
	var (
		written int64
		resumed int
		err     error
	)
	switch {
	case target.dir != "":
		written, resumed, err = writeDir(v, target.dir, mopts, opts, digests)
	case target.tar == nil:
		err = errors.New("no target")
	case opts.JournalPath != "" || opts.FailAfterFiles > 0:
		err = errors.New("JournalPath and FailAfterFiles need a directory target")
	default:
		// The segment's content is generated and hashed by opts.Parallelism
		// workers, each writing its chunks at their offsets in the segment.
		written, err = imgfmt.WriteSegment(target.tar, v.Tree, v.Dirs, v.Files, mopts)
	}
	if err != nil {
		return nil, fmt.Errorf("distribute: shard %d: %w", v.Shard, err)
	}

	m := &Manifest{
		FormatVersion:   FormatVersion,
		PlanFingerprint: v.Plan.Fingerprint(),
		Shard:           v.Shard,
		Dirs:            len(v.Dirs),
		Files:           len(v.Files),
		Bytes:           written,
		ContentHashed:   !opts.MetadataOnly,
		FileDigests:     make([]FileDigest, len(v.Files)),
	}
	for i, f := range v.Files {
		m.FileDigests[i] = FileDigest{ID: f.ID, Size: f.Size, SHA256: digests[i]}
	}
	m.Seal()
	return &ShardResult{Manifest: m, ResumedFiles: resumed, WrittenFiles: len(v.Files) - resumed}, nil
}

// writeDir materializes the shard under outRoot through one VFS writer,
// whose mopts.OnDigest fills digests, and returns the bytes the shard holds
// and how many files a journal let it skip. With a journal the files, in
// the shard's directory-major order, are sealed into it BatchFiles at a
// time, each batch as soon as the writer has collected it (its files
// closed, its digests reported). The writer cuts a run at every batch, so a
// failed run never holds back a batch already complete.
func writeDir(v *ShardView, outRoot string, mopts fsimage.MaterializeOptions, opts WorkerOptions, digests []string) (written int64, resumed int, err error) {
	sink := fsimage.NewMaterializeSink(outRoot, v.Tree, mopts)
	// The directory pass is idempotent; it runs every attempt so a resume
	// against a cleaned output root recreates the skeleton.
	for _, id := range v.Dirs {
		if err := sink.AddDir(fsimage.DirRecord{ID: id}); err != nil {
			return 0, 0, err
		}
	}
	var journal *ShardJournal
	batch := len(v.Files)
	if opts.JournalPath != "" {
		rec := recoverJournal(opts.JournalPath, v, outRoot, opts.MetadataOnly)
		if journal, err = openJournal(opts.JournalPath, v.Plan.Fingerprint(), v.Shard, rec); err != nil {
			return 0, 0, sink.Fail(err)
		}
		defer journal.Close()
		for i, sum := range rec.digests {
			mopts.OnDigest(v.Files[i], sum)
		}
		written, resumed = rec.bytes, len(rec.digests)
		if batch = opts.BatchFiles; batch <= 0 {
			batch = DefaultJournalBatch
		}
	}
	end := len(v.Files)
	if opts.FailAfterFiles > 0 {
		end = min(end, resumed+opts.FailAfterFiles)
	}
	// seal journals the whole batches collected, and with all the rest.
	seal := func(all bool) error {
		for done := resumed + sink.Collected(); journal != nil && journal.next < done && (all || done-journal.next >= batch); {
			lo, n := journal.next, int64(0)
			for _, f := range v.Files[lo:min(lo+batch, done)] {
				n += f.Size
			}
			if err := journal.Append(digests[lo:min(lo+batch, done)], n); err != nil {
				return err
			}
		}
		return nil
	}
	for i := resumed; i < end && err == nil; i++ {
		if err = sink.AddFile(v.Files[i]); err == nil && (i+1-resumed)%batch == 0 {
			err = sink.Cut()
		}
		// Sealed after a failure too: the batches collected before it.
		if serr := seal(false); err == nil && serr != nil {
			err = sink.Fail(serr)
		}
	}
	if err == nil {
		// After a failure whole batches only: the partial one is not done.
		err = sink.Close()
		err = cmp.Or(err, seal(err == nil))
	}
	if err == nil && end < len(v.Files) {
		err = ErrSimulatedCrash
	}
	if err != nil {
		return 0, 0, err
	}
	return written + sink.Written(), resumed, nil
}
