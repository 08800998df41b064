package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
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

// selfHash computes the manifest's integrity hash.
func (m *Manifest) selfHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-manifest-v%d\nplan:%s\nshard:%d dirs:%d files:%d bytes:%d hashed:%t\n",
		m.FormatVersion, m.PlanFingerprint, m.Shard, m.Dirs, m.Files, m.Bytes, m.ContentHashed)
	for _, fd := range m.FileDigests {
		fmt.Fprintf(h, "%d %d %s\n", fd.ID, fd.Size, fd.SHA256)
	}
	return hex.EncodeToString(h.Sum(nil))
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

// Encode writes the manifest as JSON.
func (m *Manifest) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("distribute: encoding manifest: %w", err)
	}
	return nil
}

// DecodeManifest reads a manifest previously written by Encode.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := decodeJSONArtifact(r, "manifest", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// decodeJSONArtifact reads a single-object artifact (a manifest, a fragment
// index) that must be all of r: input that does not parse, stops early or
// goes on after the object is a damaged artifact.
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
	// JournalPath, when set, makes a directory execution resumable: files
	// are written BatchFiles at a time, each batch's digests are sealed into
	// this append-only journal, and an execution that finds a journal for
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

// TarTarget serializes the shard as a tar segment onto w, sequentially;
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
	digests := make([]string, len(v.Files))
	var (
		written int64
		resumed int
		err     error
	)
	switch {
	case target.dir != "":
		written, resumed, err = writeDir(ctx, v, target.dir, opts, digests)
	case target.tar == nil:
		err = errors.New("no target")
	case opts.JournalPath != "" || opts.FailAfterFiles > 0:
		err = errors.New("JournalPath and FailAfterFiles need a directory target")
	default:
		written, err = writeTarSegment(ctx, v, target.tar, opts, digests)
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

// writeDir materializes the shard under outRoot through the VFS writer,
// fills digests and returns the bytes the shard holds and how many files a
// journal let it skip. Without a journal the files go in one batch; with
// one they go BatchFiles at a time in shard file order — a resume point is
// a prefix of that order — and each batch is sealed into the journal before
// the next starts.
func writeDir(ctx context.Context, v *ShardView, outRoot string, opts WorkerOptions, digests []string) (written int64, resumed int, err error) {
	mopts := fsimage.MaterializeOptions{
		Registry:     content.NewRegistry(content.Kind(v.Plan.ContentKind)),
		Seed:         v.Plan.Seed,
		MetadataOnly: opts.MetadataOnly,
		Parallelism:  opts.Parallelism,
		Context:      ctx,
	}
	// The directory pass is idempotent MkdirAll; run it every attempt so a
	// resume against a cleaned output root recreates the skeleton.
	if _, err := fsimage.MaterializeShardRecords(outRoot, v.Tree, v.Dirs, nil, mopts); err != nil {
		return 0, 0, err
	}
	var journal *ShardJournal
	batch := len(v.Files)
	if opts.JournalPath != "" {
		rec := recoverJournal(opts.JournalPath, v, outRoot, opts.MetadataOnly)
		if journal, err = openJournal(opts.JournalPath, v.Plan.Fingerprint(), v.Shard, rec); err != nil {
			return 0, 0, err
		}
		defer journal.Close()
		copy(digests, rec.digests)
		written, resumed = rec.bytes, len(rec.digests)
		if batch = opts.BatchFiles; batch <= 0 {
			batch = DefaultJournalBatch
		}
	}
	for lo, hi := resumed, 0; lo < len(v.Files); lo = hi {
		hi = min(lo+batch, len(v.Files))
		if opts.FailAfterFiles > 0 {
			hi = min(hi, resumed+opts.FailAfterFiles)
		}
		mopts.Digests = digests[lo:hi]
		n, err := fsimage.MaterializeShardRecords(outRoot, v.Tree, nil, v.Files[lo:hi], mopts)
		if err != nil {
			return 0, 0, err
		}
		if journal != nil {
			if err := journal.Append(digests[lo:hi], n); err != nil {
				return 0, 0, err
			}
		}
		written += n
		if opts.FailAfterFiles > 0 && hi == resumed+opts.FailAfterFiles && hi < len(v.Files) {
			return 0, 0, ErrSimulatedCrash
		}
	}
	return written, resumed, nil
}
