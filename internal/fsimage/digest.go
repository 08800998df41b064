package fsimage

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"
	"strings"

	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// DigestVersion names the canonical image digest, which every writer, the
// merge of shard manifests and a walk of a written tree (HashTree) compute.
// A directory's hash is SHA-256 over the SHA-256 of its files' entries
// (AppendFileEntry), then its subdirectories' names, each with a NUL and
// its hash, both in byte-wise name order. The image digest is SHA-256 over
// the version, the totals and the root's hash; no ID, special mark, bias or
// root name is hashed. Canonical file names ascend below MaxFiles files,
// which core.Config.Validate enforces: no run has come near that size.
const DigestVersion = "impressions-image-digest-v2"

// MaterializeStreamLabel is the fork label of the RNG stream that drives
// content generation; per-file streams are SplitN(fileID) children of it.
// Exported so the distributed plan can record the stream key explicitly.
const MaterializeStreamLabel = "materialize"

// ContentStreams derives every file's content stream: the one derivation
// that every reader of a file's bytes goes through — the VFS writer, the
// archive sinks' body engine, the hash oracle (ContentDigests), the search
// indexer and the Table 6 experiment — so each sees the bytes the image
// holds. It is safe for concurrent use.
type ContentStreams struct{ base *stats.RNG }

// NewContentStreams forks the content stream of seed once; File splits it.
func NewContentStreams(seed int64) ContentStreams {
	return ContentStreams{stats.NewRNG(seed).Fork(MaterializeStreamLabel)}
}

// File returns the content stream of file id, a function of the seed and the
// ID alone, never of write order, worker, process or shard.
func (s ContentStreams) File(id int) *stats.RNG { return s.base.SplitN(uint64(id)) }

// ContentDigests returns the SHA-256 (hex) of every file's generated
// content, indexed by file ID, without touching disk: each file's generator
// writes straight into a hash. The per-file RNG streams are exactly the ones
// Materialize uses, so digests[i] is the hash of the bytes Materialize would
// write for file i.
func (img *Image) ContentDigests(opts MaterializeOptions) ([]string, error) {
	opts = opts.WithDefaults(img.Spec.Seed)
	digests := make([]string, len(img.Files))
	streams := NewContentStreams(opts.Seed)
	// Chunks scale with the worker count (per-file streams are ID-keyed, so
	// boundaries are free to move); a fixed 4096-file chunk would hash any
	// smaller image serially.
	ctx := opts.Context
	err := parallel.RunChunks(ctx, opts.Parallelism, len(img.Files), func(lo, hi int) error {
		h := sha256.New()
		for _, f := range img.Files[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			h.Reset()
			if err := opts.Registry.ForExtension(f.Ext).Generate(h, f.Size, streams.File(f.ID)); err != nil {
				return fmt.Errorf("fsimage: hashing content of file %d: %w", f.ID, err)
			}
			digests[f.ID] = hex.EncodeToString(h.Sum(nil))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return digests, nil
}

// Digest computes the canonical SHA-256 of the image (DigestVersion)
// without touching disk. Two images with equal digests materialize to
// byte-identical trees. The distributed merge step reproduces the same
// value from shard manifests through a DigestFold, and HashTree from the
// written tree.
func (img *Image) Digest(opts MaterializeOptions) (string, error) {
	digests, err := img.ContentDigests(opts)
	if err != nil {
		return "", err
	}
	return CombineDigest(img, digests)
}

// CombineDigest folds per-file content hashes (indexed by file ID, as
// returned by ContentDigests or collected from shard manifests) into the
// canonical image digest.
func CombineDigest(img *Image, fileDigests []string) (string, error) {
	if len(fileDigests) != len(img.Files) {
		return "", fmt.Errorf("fsimage: %d file digests for %d files", len(fileDigests), len(img.Files))
	}
	b := NewDigestBuilder(img.DirCount(), img.FileCount(), img.TotalBytes(), func(f File) (string, error) {
		return fileDigests[f.ID], nil
	})
	if err := img.StreamRecords(b); err != nil {
		return "", err
	}
	return b.Sum()
}

// AppendFileEntry appends a file's entry in its directory's hash to dst: its
// name, a NUL, its size (8 bytes, big-endian) and its content SHA-256. The
// archive sinks' workers format with it for DigestFold.AddFiles.
func AppendFileEntry(dst []byte, name string, size int64, sum []byte) []byte {
	dst = append(append(dst, name...), 0)
	dst = binary.BigEndian.AppendUint64(dst, uint64(size))
	return append(dst, sum[:sha256.Size]...)
}

// DigestFold folds the canonical digest of an image's directories, then its
// files in canonical order, keeping one running hash for the open directory
// and 32 bytes for each other one. Sum fails with ErrManifestIntegrity on
// totals other than those promised, file names that do not ascend in their
// directory, a directory that steps back, two sibling directories of one
// name or a bad content hash.
type DigestFold struct {
	wantDirs, wantFiles, files int
	wantBytes, bytes           int64

	tree *namespace.Tree     // names the directories in Sum
	sums [][sha256.Size]byte // each directory's files' hash, once closed
	h    hash.Hash           // the open directory's files
	open int                 // the open directory; -1 before the first file
	last string              // the open directory's last file name
	err  error
	buf  []byte
}

// NewDigestFold starts a digest over an image promising the given totals.
func NewDigestFold(dirs, files int, bytes int64) *DigestFold {
	return &DigestFold{wantDirs: dirs, wantFiles: files, wantBytes: bytes, h: sha256.New(), open: -1}
}

// fail records the fold's first failure, which Sum returns.
func (b *DigestFold) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("fsimage: digest fold: "+format+" (%w)", append(args, ErrManifestIntegrity)...)
	}
}

// AddDir takes directory id of tree, the next directory of the image. Sum
// names the directories from tree, which the fold does not copy.
func (b *DigestFold) AddDir(tree *namespace.Tree, id int) {
	if id != len(b.sums) || b.open >= 0 {
		b.fail("directory %d arrived as directory %d", id, len(b.sums))
	}
	b.tree, b.sums = tree, append(b.sums, sha256.Sum256(nil))
}

// ParseContentHash decodes a file's content hash as OnDigest and the
// manifests carry it: 64 hex digits.
func ParseContentHash(sum string) ([sha256.Size]byte, bool) {
	var raw [sha256.Size]byte
	got, err := hex.AppendDecode(raw[:0], []byte(sum))
	return raw, err == nil && len(got) == len(raw)
}

// AddFile folds the next file, of content hash sum (hex).
func (b *DigestFold) AddFile(f File, sum string) {
	raw, ok := ParseContentHash(sum)
	if !ok {
		b.fail("file %d has content hash %q", f.ID, sum)
	}
	b.buf = AppendFileEntry(b.buf[:0], f.Name, f.Size, raw[:])
	b.AddFiles([]File{f}, b.buf)
}

// AddFiles folds the next files, whose AppendFileEntry entries, in order,
// are entries, for a caller that formats them elsewhere (the archive sinks'
// workers, beside each file's content hash).
func (b *DigestFold) AddFiles(files []File, entries []byte) {
	n := 0 // entries[:n] are the open directory's, not yet hashed
	for _, f := range files {
		b.files++
		b.bytes += f.Size
		switch {
		case f.DirID == b.open:
			if f.Name <= b.last {
				b.fail("file %q follows %q in directory %d", f.Name, b.last, f.DirID)
			}
		case f.DirID < b.open || f.DirID >= len(b.sums) || n > len(entries):
			b.fail("file %d in directory %d follows directory %d of %d", f.ID, f.DirID, b.open, len(b.sums))
			return
		default:
			if b.open >= 0 {
				b.h.Write(entries[:n])
				b.h.Sum(b.sums[b.open][:0])
				b.h.Reset()
			}
			b.open, entries, n = f.DirID, entries[n:], 0
		}
		b.last = f.Name
		n += len(f.Name) + 1 + 8 + sha256.Size // AppendFileEntry's length
	}
	if n != len(entries) {
		b.fail("%d bytes of entries for %d files", len(entries), len(files))
	}
	b.h.Write(entries)
}

// Sum returns the canonical digest, verifying the fold took exactly the
// totals promised to NewDigestFold. It hashes every directory in one pass
// from the highest ID down: a subdirectory's ID is above its parent's, so
// its hash is final before its parent's is taken.
func (b *DigestFold) Sum() (string, error) {
	if b.err != nil {
		return "", b.err
	}
	if len(b.sums) != b.wantDirs || b.files != b.wantFiles || b.bytes != b.wantBytes {
		return "", fmt.Errorf("fsimage: digest stream carried %d dirs, %d files, %d bytes; header promised %d, %d, %d (%w)",
			len(b.sums), b.files, b.bytes, b.wantDirs, b.wantFiles, b.wantBytes, ErrManifestIntegrity)
	}
	if b.open >= 0 {
		b.h.Sum(b.sums[b.open][:0])
	}
	top := sha256.New()
	fmt.Fprintf(top, "%s\ndirs:%d files:%d bytes:%d\n", DigestVersion, b.wantDirs, b.wantFiles, b.wantBytes)
	if len(b.sums) == 0 {
		return hex.EncodeToString(top.Sum(nil)), nil
	}
	// Every directory but the root, by parent, then by name: the
	// subdirectories of d are the last run of kids[:at].
	dirs, sums := b.tree.Dirs[:len(b.sums)], slices.Clone(b.sums)
	kids := make([]int32, len(dirs)-1)
	for i := range kids {
		kids[i] = int32(i + 1)
	}
	slices.SortFunc(kids, func(x, y int32) int {
		return cmp.Or(cmp.Compare(dirs[x].Parent, dirs[y].Parent), strings.Compare(dirs[x].Name, dirs[y].Name))
	})
	h, at := sha256.New(), len(kids)
	for d := len(dirs) - 1; d >= 0; d-- {
		h.Reset()
		h.Write(sums[d][:])
		from := at
		for from > 0 && dirs[kids[from-1]].Parent == d {
			from--
		}
		for i, k := range kids[from:at] {
			if i > 0 && dirs[k].Name == dirs[kids[from+i-1]].Name {
				return "", fmt.Errorf("fsimage: directory %d holds two directories named %q (%w)", d, dirs[k].Name, ErrManifestIntegrity)
			}
			h.Write(append(append([]byte(dirs[k].Name), 0), sums[k][:]...))
		}
		h.Sum(sums[d][:0])
		at = from
	}
	top.Write(sums[0][:])
	return hex.EncodeToString(top.Sum(nil)), nil
}

// DigestBuilder is the canonical image digest of a record stream on its own:
// a TreeSink, which validates the stream and rebuilds the compact directory
// tree, feeding a DigestFold. content supplies each file's content hash
// (from a manifest, a precomputed table, or inline generation).
type DigestBuilder struct {
	ts      TreeSink
	fold    *DigestFold
	content func(File) (string, error)
}

// NewDigestBuilder starts a streaming digest over an image promising the
// given totals.
func NewDigestBuilder(dirs, files int, bytes int64, content func(File) (string, error)) *DigestBuilder {
	return &DigestBuilder{fold: NewDigestFold(dirs, files, bytes), content: content}
}

// AddDir folds the next directory record into the digest.
func (b *DigestBuilder) AddDir(d DirRecord) error {
	if err := b.ts.AddDir(d); err != nil {
		return err
	}
	b.fold.AddDir(b.ts.Tree(), d.ID)
	return nil
}

// AddFile folds the next file record (name, size, content hash) into the
// digest.
func (b *DigestBuilder) AddFile(f File) error {
	if err := b.ts.AddFile(f); err != nil {
		return err
	}
	sum, err := b.content(f)
	if err != nil {
		return err
	}
	b.fold.AddFile(f, sum)
	return b.fold.err
}

// Sum returns the canonical digest, verifying the stream delivered exactly
// the totals promised to NewDigestBuilder.
func (b *DigestBuilder) Sum() (string, error) { return b.fold.Sum() }

// HashTree computes the canonical digest of a real directory tree —
// ScanTree, the SHA-256 of each file, CombineDigest — so a written image
// walks to the digest its report, plan and daemon publish. A symlink, FIFO
// or device in the tree fails it with ErrManifestIntegrity before any file
// is opened.
func HashTree(root string) (string, error) {
	res, err := ScanTree(root)
	if err != nil {
		return "", err
	}
	if res.Irregular > 0 {
		return "", fmt.Errorf("fsimage: tree %q holds %d entries that are neither directories nor regular files (%w)", root, res.Irregular, ErrManifestIntegrity)
	}
	img, h, buf := res.Image, sha256.New(), make([]byte, 64<<10)
	digests := make([]string, len(img.Files))
	var name []byte
	for _, f := range img.Files {
		name = appendEntryPath(name, root, img.Tree, f.DirID, f.Name)
		fh, err := os.Open(string(name))
		if err != nil {
			return "", fmt.Errorf("fsimage: hashing tree: %w", err)
		}
		h.Reset()
		// Hiding *os.File's WriteTo keeps it from copying through a buffer
		// of its own.
		_, err = io.CopyBuffer(h, struct{ io.Reader }{fh}, buf)
		fh.Close()
		if err != nil {
			return "", fmt.Errorf("fsimage: hashing tree: %w", err)
		}
		digests[f.ID] = hex.EncodeToString(h.Sum(buf[:0]))
	}
	return CombineDigest(img, digests)
}
