package fsimage

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// MaterializeOptions controls how an image is written to a real file system.
type MaterializeOptions struct {
	// Registry supplies per-extension content generators. If nil, the default
	// content policy is used.
	Registry *content.Registry
	// Seed drives content generation; the same seed regenerates identical
	// content. If zero, the image spec's seed is used.
	Seed int64
	// MetadataOnly creates directories and empty (truncated to size) files
	// without writing content, which is much faster and sufficient for
	// metadata-only studies.
	MetadataOnly bool
	// DirPerm and FilePerm are the permissions for created entries.
	DirPerm  os.FileMode
	FilePerm os.FileMode
	// Parallelism is the number of shard workers writing the image; 0 selects
	// runtime.NumCPU(), 1 forces the serial path. Every file's content is
	// drawn from a stream derived from the seed and the file's ID, so the
	// written bytes are identical at every parallelism level.
	Parallelism int
	// Digests, when non-nil, must have length Image.FileCount(); the SHA-256
	// (hex) of each written file's content is stored at its file ID during
	// the write, saving a second content-generation pass when both the image
	// and its digest are wanted. Slots stay empty with MetadataOnly. Shard
	// workers write disjoint slots, so no synchronization is needed.
	Digests []string
	// Context, when non-nil, cancels the materialization: the per-shard
	// worker loops poll it between files and abort with its error. Written
	// files are left in place (a cancelled shard simply stops), so callers
	// that need a clean tree should write into a staging directory. A nil
	// Context never cancels.
	Context context.Context
}

// ctx returns the cancellation context, defaulting to context.Background().
func (opts MaterializeOptions) ctx() context.Context {
	if opts.Context == nil {
		return context.Background()
	}
	return opts.Context
}

// withDefaults fills in the option defaults; a zero Seed falls back to
// fallbackSeed (callers without an image pass the plan or spec seed
// explicitly).
func (opts MaterializeOptions) withDefaults(fallbackSeed int64) MaterializeOptions {
	if opts.Registry == nil {
		opts.Registry = content.NewRegistry(content.KindDefault)
	}
	if opts.Seed == 0 {
		opts.Seed = fallbackSeed
	}
	if opts.DirPerm == 0 {
		opts.DirPerm = 0o755
	}
	if opts.FilePerm == 0 {
		opts.FilePerm = 0o644
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	return opts
}

// normalized fills in the option defaults relative to an image.
func (opts MaterializeOptions) normalized(img *Image) MaterializeOptions {
	return opts.withDefaults(img.Spec.Seed)
}

// ShardWeight estimates the materialization cost of one directory (its
// bytes, a per-file creation overhead, and a per-directory floor). It is
// the one weighting both Materialize and the distributed planner balance
// shards by, so single-process and distributed runs split work the same way.
func ShardWeight(d *namespace.Dir) float64 {
	return float64(d.Bytes) + 16*1024*float64(d.FileCount) + 4096
}

// Materialize writes the image as a real directory tree rooted at root.
// It returns the number of bytes written.
//
// The image is partitioned into balanced shards (namespace.PartitionBalanced,
// which may cut dominant subtrees at deeper levels — a shard's directory list
// can contain deep cut roots whose ancestors belong to other shards and are
// created implicitly via MkdirAll); each worker creates its shard's
// directories and files. Per-file RNG streams keep the output byte-identical
// regardless of the worker count, and per-shard byte counts are merged into
// the single returned total.
func (img *Image) Materialize(root string, opts MaterializeOptions) (int64, error) {
	opts = opts.normalized(img)
	workers := opts.Parallelism
	if opts.Digests != nil && len(opts.Digests) != len(img.Files) {
		return 0, fmt.Errorf("fsimage: digest slice has length %d, want %d", len(opts.Digests), len(img.Files))
	}
	if err := os.MkdirAll(root, opts.DirPerm); err != nil {
		return 0, fmt.Errorf("fsimage: creating root %q: %w", root, err)
	}

	// Partition the namespace into balanced subtree shards; weight each
	// directory by the bytes and files it holds directly so shards carry
	// comparable write work. Over-shard relative to the worker count so the
	// atomic shard queue can smooth out uneven subtrees; the balanced
	// partitioner cuts dominant subtrees at deeper levels, so shards stay
	// comparable even on heavily skewed generative trees.
	shardGoal := workers * 4
	part := namespace.PartitionBalanced(img.Tree, shardGoal, ShardWeight)
	filesByShard := make([][]int, part.Len())
	for i := range img.Files {
		s := part.ShardOf(img.Files[i].DirID)
		filesByShard[s] = append(filesByShard[s], i)
	}

	var (
		written atomic.Int64
		mu      sync.Mutex
		firstEr error
	)
	parallel.Run(workers, part.Len(), func(s int) {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			return // short-circuit remaining shards after the first error
		}
		n, err := img.materializeShard(root, part.Shards[s], filesByShard[s], opts, opts.Digests)
		written.Add(n)
		if err != nil {
			mu.Lock()
			if firstEr == nil {
				firstEr = err
			}
			mu.Unlock()
		}
	})
	return written.Load(), firstEr
}

// MaterializeShard creates the given directories and files of the image
// under root, the primitive one distributed worker process executes for its
// shard. dirs and files are image IDs/indices; dirs must be in ascending ID
// order so parents precede children (namespace.Partition shard lists are).
// The image root itself is created if missing. When digests is non-nil it
// must have length len(img.Files); the SHA-256 (hex) of each written file's
// content is stored at its file ID, so shard manifests can prove what was
// written without re-reading it. With MetadataOnly no content exists and
// digest slots are left empty.
func (img *Image) MaterializeShard(root string, dirs, files []int, opts MaterializeOptions, digests []string) (int64, error) {
	opts = opts.normalized(img)
	if digests == nil {
		digests = opts.Digests
	}
	if digests != nil && len(digests) != len(img.Files) {
		return 0, fmt.Errorf("fsimage: digest slice has length %d, want %d", len(digests), len(img.Files))
	}
	return img.materializeShard(root, dirs, files, opts, digests)
}

// materializeShard gathers one shard's file records and hands them to the
// record-based primitive, scattering the per-record digests back into the
// image-wide (file-ID indexed) slice.
func (img *Image) materializeShard(root string, dirs []int, files []int, opts MaterializeOptions, digests []string) (int64, error) {
	recs := make([]File, len(files))
	for k, i := range files {
		recs[k] = img.Files[i]
	}
	var local []string
	if digests != nil {
		local = make([]string, len(recs))
	}
	written, err := MaterializeShardRecords(root, img.Tree, dirs, recs, opts, local)
	for k, sum := range local {
		if sum != "" {
			digests[recs[k].ID] = sum
		}
	}
	return written, err
}

// MaterializeShardRecords creates the given directories (tree IDs, in
// ascending order so parents precede children) and file records under root
// — the record-based materialization primitive every path shares: the
// retained Image.Materialize, the distributed shard workers, and the
// streaming MaterializeSink. The root itself is created if missing. When
// digests is non-nil it must have length len(files); the SHA-256 (hex) of
// files[i]'s written content is stored at digests[i] (left empty with
// MetadataOnly). opts.Seed is used as given — callers without an image pass
// the plan or spec seed.
func MaterializeShardRecords(root string, tree *namespace.Tree, dirs []int, files []File, opts MaterializeOptions, digests []string) (int64, error) {
	opts = opts.withDefaults(opts.Seed)
	if digests != nil && len(digests) != len(files) {
		return 0, fmt.Errorf("fsimage: digest slice has length %d, want %d", len(digests), len(files))
	}
	if err := os.MkdirAll(root, opts.DirPerm); err != nil {
		return 0, fmt.Errorf("fsimage: creating root %q: %w", root, err)
	}
	// One path buffer serves every entry in the shard: the per-file
	// filepath.Join/FromSlash garbage used to dominate the hot loop's
	// allocations (the final string for the open syscall is the only
	// per-entry allocation left).
	var pathBuf []byte
	for _, id := range dirs {
		if id == 0 {
			continue
		}
		pathBuf = appendEntryPath(pathBuf, root, tree, id, "")
		p := string(pathBuf)
		if err := os.MkdirAll(p, opts.DirPerm); err != nil {
			return 0, fmt.Errorf("fsimage: creating directory %q: %w", p, err)
		}
	}
	var written int64
	var sum hash.Hash
	if digests != nil {
		sum = sha256.New()
	}
	ctx := opts.ctx()
	baseRNG := stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel)
	for k, f := range files {
		if err := ctx.Err(); err != nil {
			return written, err
		}
		pathBuf = appendEntryPath(pathBuf, root, tree, f.DirID, f.Name)
		p := string(pathBuf)
		// Each file owns a stream keyed by its ID: content depends only on
		// the seed and the file, never on write order or worker identity.
		rng := baseRNG.SplitN(uint64(f.ID))
		if sum != nil {
			sum.Reset()
		}
		n, err := writeFile(p, f, opts, rng, sum)
		if err != nil {
			return written, err
		}
		if sum != nil && !opts.MetadataOnly {
			digests[k] = hex.EncodeToString(sum.Sum(nil))
		}
		written += n
	}
	return written, nil
}

// AppendFilePath appends the slash-separated path of a file record relative
// to the tree root: the name the file has in the canonical digest and in
// every archive format.
func AppendFilePath(dst []byte, tree *namespace.Tree, f File) []byte {
	base := len(dst)
	if dst = tree.AppendPath(dst, f.DirID); len(dst) > base {
		dst = append(dst, '/')
	}
	return append(dst, f.Name...)
}

// appendEntryPath resets dst to the on-disk path of one image entry — root,
// the directory's tree path, and an optional file name, joined with the OS
// separator — and returns the extended slice. It is the reusable-buffer
// counterpart of filepath.Join(root, filepath.FromSlash(...)) for the
// materialize hot loops.
func appendEntryPath(dst []byte, root string, tree *namespace.Tree, dirID int, name string) []byte {
	dst = append(dst[:0], root...)
	mark := len(dst)
	if dirID > 0 {
		dst = append(dst, os.PathSeparator)
		mark = len(dst)
		dst = tree.AppendPath(dst, dirID)
	}
	if name != "" {
		dst = append(dst, os.PathSeparator)
		dst = append(dst, name...)
	}
	if os.PathSeparator != '/' {
		// Tree paths are slash-separated; convert only the appended region.
		for i := mark; i < len(dst); i++ {
			if dst[i] == '/' {
				dst[i] = os.PathSeparator
			}
		}
	}
	return dst
}

// MaterializeSink is the streaming materializer: a RecordSink that writes
// each record to disk as it arrives — directories as they stream by, each
// file's content generated straight into its file — holding only the
// compact directory tree. It is the out-of-core counterpart of
// Image.Materialize for pipelines that never retain the file records;
// writes are serial (stream order), so prefer Materialize when the image is
// in memory and parallel writers pay off. The written bytes are identical
// either way: content streams are keyed by file ID alone.
type MaterializeSink struct {
	// OnDigest, when non-nil, observes each written file's content SHA-256
	// (hex); it is not called with MetadataOnly.
	OnDigest func(f File, sha256 string)

	root    string
	opts    MaterializeOptions
	ts      TreeSink
	baseRNG *stats.RNG
	sum     hash.Hash
	pathBuf []byte
	written int64
}

// NewMaterializeSink starts a streaming materialization under root.
// opts.Seed must carry the content seed (there is no image to default from).
func NewMaterializeSink(root string, opts MaterializeOptions) (*MaterializeSink, error) {
	opts = opts.withDefaults(opts.Seed)
	if err := os.MkdirAll(root, opts.DirPerm); err != nil {
		return nil, fmt.Errorf("fsimage: creating root %q: %w", root, err)
	}
	s := &MaterializeSink{
		root:    root,
		opts:    opts,
		baseRNG: stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel),
		sum:     sha256.New(),
	}
	return s, nil
}

// AddDir creates the next directory.
func (s *MaterializeSink) AddDir(d DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return err
	}
	if d.ID == 0 {
		return nil
	}
	s.pathBuf = appendEntryPath(s.pathBuf, s.root, s.ts.Tree(), d.ID, "")
	p := string(s.pathBuf)
	if err := os.MkdirAll(p, s.opts.DirPerm); err != nil {
		return fmt.Errorf("fsimage: creating directory %q: %w", p, err)
	}
	return nil
}

// AddFile writes the next file. It polls the options' context between
// files, like every other per-file loop: a cancelled streaming
// materialization stops at the next record instead of draining the whole
// stream onto disk.
func (s *MaterializeSink) AddFile(f File) error {
	if err := s.opts.ctx().Err(); err != nil {
		return err
	}
	if err := s.ts.AddFile(f); err != nil {
		return err
	}
	s.pathBuf = appendEntryPath(s.pathBuf, s.root, s.ts.Tree(), f.DirID, f.Name)
	p := string(s.pathBuf)
	rng := s.baseRNG.SplitN(uint64(f.ID))
	var sum hash.Hash
	if s.OnDigest != nil && !s.opts.MetadataOnly {
		sum = s.sum
		sum.Reset()
	}
	n, err := writeFile(p, f, s.opts, rng, sum)
	if err != nil {
		return err
	}
	if sum != nil {
		s.OnDigest(f, hex.EncodeToString(sum.Sum(nil)))
	}
	s.written += n
	return nil
}

// Written returns the bytes written so far.
func (s *MaterializeSink) Written() int64 { return s.written }

// writerPool recycles the 64 KB bufio.Writers used to write file content, so
// concurrent shard workers stop allocating fresh buffers for every file.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 64*1024) },
}

func writeFile(path string, f File, opts MaterializeOptions, rng *stats.RNG, sum hash.Hash) (int64, error) {
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, opts.FilePerm)
	if err != nil {
		return 0, fmt.Errorf("fsimage: creating file %q: %w", path, err)
	}
	defer fh.Close()
	if opts.MetadataOnly {
		if f.Size > 0 {
			if err := fh.Truncate(f.Size); err != nil {
				return 0, fmt.Errorf("fsimage: truncating %q: %w", path, err)
			}
		}
		return f.Size, nil
	}
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(fh)
	defer func() {
		bw.Reset(nil) // drop the file reference before pooling
		writerPool.Put(bw)
	}()
	var dst io.Writer = bw
	if sum != nil {
		// The hash taps the generator's output directly, before buffering, so
		// it observes exactly the bytes that reach the file.
		dst = io.MultiWriter(bw, sum)
	}
	if err := opts.Registry.ForExtension(f.Ext).Generate(dst, f.Size, rng); err != nil {
		return 0, fmt.Errorf("fsimage: writing content for %q: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("fsimage: flushing %q: %w", path, err)
	}
	if err := fh.Close(); err != nil {
		return 0, fmt.Errorf("fsimage: closing %q: %w", path, err)
	}
	return f.Size, nil
}
