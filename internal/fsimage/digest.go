package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// DigestVersion names the canonical image-digest formula. It is part of the
// distributed pipeline's wire contract: shard manifests carry per-file
// content hashes, the merge step folds them with a DigestFold, and the
// result must equal Digest computed by a single process. Bump the version if
// the formula ever changes.
const DigestVersion = "impressions-image-digest-v1"

// MaterializeStreamLabel is the fork label of the RNG stream that drives
// content generation; per-file streams are SplitN(fileID) children of it.
// Exported so the distributed plan can record the stream key explicitly.
const MaterializeStreamLabel = "materialize"

// ContentDigests returns the SHA-256 (hex) of every file's generated
// content, indexed by file ID, without touching disk: each file's generator
// writes straight into a hash. The per-file RNG streams are exactly the ones
// Materialize uses, so digests[i] is the hash of the bytes Materialize would
// write for file i.
func (img *Image) ContentDigests(opts MaterializeOptions) ([]string, error) {
	opts = opts.withDefaults(img.Spec.Seed)
	digests := make([]string, len(img.Files))
	baseRNG := stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel)
	// Chunks scale with the worker count (per-file streams are ID-keyed, so
	// boundaries are free to move); a fixed 4096-file chunk would hash any
	// smaller image serially.
	ctx := opts.ctx()
	err := parallel.RunChunks(ctx, opts.Parallelism, len(img.Files), func(lo, hi int) error {
		h := sha256.New()
		for _, f := range img.Files[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			h.Reset()
			rng := baseRNG.SplitN(uint64(f.ID))
			if err := opts.Registry.ForExtension(f.Ext).Generate(h, f.Size, rng); err != nil {
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

// Digest computes the canonical SHA-256 of the image: directory paths in ID
// order, then every file's path, size and content hash in ID order. Two
// images with equal digests materialize to byte-identical trees. It is
// computed without touching disk; the distributed merge step reproduces the
// same value from shard manifests through a DigestFold.
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
		if fileDigests[f.ID] == "" {
			return "", fmt.Errorf("fsimage: missing content digest for file %d", f.ID)
		}
		return fileDigests[f.ID], nil
	})
	if err := img.StreamRecords(b); err != nil {
		return "", err
	}
	return b.Sum()
}

// AppendFileLine appends one file's line of the canonical digest,
// "F <path> <size> <content sha256, hex>\n", to dst. It is the one formatter
// of that line: DigestFold.AddFile uses it, and so do the archive sinks'
// workers, which hand their lines to AddFileLines.
func AppendFileLine[S string | []byte](dst, path []byte, size int64, hexSum S) []byte {
	dst = append(dst, "F "...)
	dst = append(dst, path...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, size, 10)
	dst = append(dst, ' ')
	dst = append(dst, hexSum...)
	return append(dst, '\n')
}

// DigestFold is the tree-free core of the canonical image digest (the
// Digest / CombineDigest formula, DigestVersion): the header from the totals
// the image promises, then a line per directory and per file, each formatted
// over the tree of whoever feeds the fold — it holds none of its own. The
// promised totals are part of the header, so they must be known up front
// (plan headers and images both carry them); Sum fails if the fold did not
// take exactly those totals. Directories go in ID order, then files in ID
// order.
type DigestFold struct {
	h         hash.Hash
	wantDirs  int
	wantFiles int
	wantBytes int64
	dirs      int
	files     int
	bytes     int64
	path      []byte // reused per line
	line      []byte
}

// NewDigestFold starts a digest over an image promising the given totals.
func NewDigestFold(dirs, files int, bytes int64) *DigestFold {
	h := sha256.New()
	fmt.Fprintf(h, "%s\ndirs:%d files:%d bytes:%d\n", DigestVersion, dirs, files, bytes)
	return &DigestFold{h: h, wantDirs: dirs, wantFiles: files, wantBytes: bytes}
}

// AddDir folds the line of directory id of tree, the next directory of the
// image.
func (b *DigestFold) AddDir(tree *namespace.Tree, id int) {
	b.line = append(tree.AppendPath(append(b.line[:0], "D "...), id), '\n')
	b.h.Write(b.line)
	b.dirs++
}

// AddFile folds the line of the next file, in tree, of content hash sum.
func (b *DigestFold) AddFile(tree *namespace.Tree, f File, sum string) {
	b.path = AppendFilePath(b.path[:0], tree, f)
	b.line = AppendFileLine(b.line[:0], b.path, f.Size, sum)
	b.AddFileLines(b.line, 1, f.Size)
}

// AddFileLines folds the AppendFileLine lines of the next files — that many
// files, of that many bytes together — for a caller that formats them
// elsewhere (the archive sinks' workers, beside each file's content hash).
func (b *DigestFold) AddFileLines(lines []byte, files int, bytes int64) {
	b.h.Write(lines)
	b.files += files
	b.bytes += bytes
}

// Sum returns the canonical digest, verifying the fold took exactly the
// totals promised to NewDigestFold.
func (b *DigestFold) Sum() (string, error) {
	if b.dirs != b.wantDirs || b.files != b.wantFiles || b.bytes != b.wantBytes {
		return "", fmt.Errorf("fsimage: digest stream carried %d dirs, %d files, %d bytes; header promised %d, %d, %d",
			b.dirs, b.files, b.bytes, b.wantDirs, b.wantFiles, b.wantBytes)
	}
	return hex.EncodeToString(b.h.Sum(nil)), nil
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

// AddFile folds the next file record (path, size, content hash) into the
// digest.
func (b *DigestBuilder) AddFile(f File) error {
	if err := b.ts.AddFile(f); err != nil {
		return err
	}
	sum, err := b.content(f)
	if err != nil {
		return err
	}
	b.fold.AddFile(b.ts.Tree(), f, sum)
	return nil
}

// Sum returns the canonical digest, verifying the stream delivered exactly
// the totals promised to NewDigestBuilder.
func (b *DigestBuilder) Sum() (string, error) { return b.fold.Sum() }

// HashTree computes a canonical SHA-256 over a real directory tree: every
// entry in sorted relative-path order, directories as "D path", files as
// "F path size contenthash". Two roots hash equal iff they hold the same
// tree with byte-identical file contents, so it is the on-disk counterpart
// of Digest for verifying that a distributed materialization produced
// exactly the single-process tree.
func HashTree(root string) (string, error) {
	type entry struct {
		rel   string
		isDir bool
		size  int64
		sum   string
	}
	var entries []entry
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			return nil
		}
		if d.IsDir() {
			entries = append(entries, entry{rel: rel, isDir: true})
			return nil
		}
		fh, oerr := os.Open(path)
		if oerr != nil {
			return oerr
		}
		defer fh.Close()
		h.Reset()
		n, cerr := io.Copy(h, fh)
		if cerr != nil {
			return cerr
		}
		entries = append(entries, entry{rel: rel, size: n, sum: hex.EncodeToString(h.Sum(nil))})
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("fsimage: hashing tree %q: %w", root, err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].rel < entries[j].rel })
	top := sha256.New()
	fmt.Fprintf(top, "impressions-tree-hash-v1\n")
	for _, e := range entries {
		if e.isDir {
			fmt.Fprintf(top, "D %s\n", e.rel)
		} else {
			fmt.Fprintf(top, "F %s %d %s\n", e.rel, e.size, e.sum)
		}
	}
	return hex.EncodeToString(top.Sum(nil)), nil
}
