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
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// Every image is written with the same permissions: its bytes, and how an
// extracted tree looks, are a function of spec and seed alone.
const (
	dirPerm  = 0o755
	filePerm = 0o644
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
	// Parallelism is the number of workers writing files; 0 selects
	// runtime.NumCPU(), 1 writes them inline. Every file's content is drawn
	// from a stream derived from the seed and the file's ID, so the written
	// bytes are identical at every parallelism level.
	Parallelism int
	// Digests, when non-nil, must have one slot per file written
	// (Image.FileCount() for Materialize, where a slot's index is the file's
	// ID); the SHA-256 (hex) of each file's content is stored in its slot
	// during the write, saving a second content-generation pass when both the
	// image and its digest are wanted. Slots stay empty with MetadataOnly.
	// Workers write disjoint slots, so no synchronization is needed.
	Digests []string
	// Context, when non-nil, cancels the materialization: the workers poll it
	// between files and stop with its error. Written files are left in place,
	// so callers that need a clean tree should write into a staging
	// directory. A nil Context never cancels.
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
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	return opts
}

// ShardWeight estimates the materialization cost of one directory (its
// bytes, a per-file creation overhead, and a per-directory floor): the
// weighting the distributed planner balances shards by.
func ShardWeight(d *namespace.Dir) float64 {
	return float64(d.Bytes) + 16*1024*float64(d.FileCount) + 4096
}

// Materialize writes the image as a real directory tree rooted at root and
// returns the number of bytes written: MaterializeShardRecords over every
// directory and every file of the image.
func (img *Image) Materialize(root string, opts MaterializeOptions) (int64, error) {
	dirs := make([]int, img.Tree.Len())
	for i := range dirs {
		dirs[i] = i
	}
	return MaterializeShardRecords(root, img.Tree, dirs, img.Files, opts.withDefaults(img.Spec.Seed))
}

// MaterializeShardRecords is the VFS writer: it creates the given
// directories (tree IDs, ascending so parents precede children; a missing
// ancestor is created on the way) in one serial pass, then writes the file
// records with opts.Parallelism workers. Image.Materialize, every directory
// target of the distributed executor and each of its journal batches are
// calls to it. The root itself is created if missing. opts.Seed is used as
// given — callers without an image pass the plan or spec seed.
//
// Files are written ordered by directory, so a worker's run of files
// shares a path prefix and two workers seldom contend for one directory.
// Each file's bytes come from its own stream, keyed by the seed and the
// file ID alone, and opts.Digests slots are positional, so the tree and
// the digests are identical at every parallelism. The first failed write
// stops every worker at its next chunk of files, the context's cancellation
// at its next file, and is the error returned; files already written stay in
// place.
//
// Each directory is one mkdir(2) unless it cannot be (then MkdirAll's
// checks run); each file is one raw descriptor from syscall.Open with
// O_CLOEXEC, written through a pooled buffer whose write(2)s are retried on
// EINTR and after short writes (Ftruncate'd instead under MetadataOnly), and
// closed on every path, its close error checked. No *os.File is made, so
// nothing but this function closes a descriptor it opened.
func MaterializeShardRecords(root string, tree *namespace.Tree, dirs []int, files []File, opts MaterializeOptions) (int64, error) {
	opts = opts.withDefaults(opts.Seed)
	if opts.Digests != nil && len(opts.Digests) != len(files) {
		return 0, fmt.Errorf("fsimage: digest slice has length %d, want %d", len(opts.Digests), len(files))
	}
	if err := os.MkdirAll(root, dirPerm); err != nil {
		return 0, fmt.Errorf("fsimage: creating root %q: %w", root, err)
	}
	var path []byte // one buffer serves every entry: the string handed to the syscall is the only allocation
	for _, id := range dirs {
		if id == 0 {
			continue // the root is made
		}
		path = appendEntryPath(path, root, tree, id, "")
		// One mkdir(2) in the common case; MkdirAll sorts out the rest — a
		// directory already there (a resume), a missing ancestor, or a
		// non-directory in the way.
		if p := string(path); os.Mkdir(p, dirPerm) != nil {
			if err := os.MkdirAll(p, dirPerm); err != nil {
				return 0, fmt.Errorf("fsimage: creating directory %q: %w", path, err)
			}
		}
	}
	// Sorting directory<<32|position orders the files by directory and, within
	// one, by position; a counting sort would cost O(dirs) per journal batch.
	order := make([]uint64, len(files))
	for k, f := range files {
		order[k] = uint64(f.DirID)<<32 | uint64(k)
	}
	slices.Sort(order)

	ctx := opts.ctx()
	baseRNG := stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel)
	var written atomic.Int64
	err := parallel.RunChunks(ctx, opts.Parallelism, len(order), func(lo, hi int) error {
		var (
			path []byte
			sum  hash.Hash // taps the content when digests are wanted
			n    int64
		)
		if opts.Digests != nil && !opts.MetadataOnly {
			sum = sha256.New()
		}
		defer func() { written.Add(n) }()
		for _, key := range order[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			k := int(uint32(key))
			f := files[k]
			path = appendEntryPath(path, root, tree, f.DirID, f.Name)
			// Each file owns a stream keyed by its ID: content depends only on
			// the seed and the file, never on write order or worker identity.
			if err := writeFile(string(path), f, opts, baseRNG.SplitN(uint64(f.ID)), sum); err != nil {
				return err
			}
			if sum != nil {
				opts.Digests[k] = hex.EncodeToString(sum.Sum(nil))
				sum.Reset()
			}
			n += f.Size
		}
		return nil
	})
	return written.Load(), err
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

// materializeBatch is how many file records MaterializeSink holds before it
// writes them: one column shard of the metadata pass.
const materializeBatch = parallel.DefaultShardSize

// MaterializeSink is the streaming materializer: a RecordSink that writes the
// records a batch at a time through MaterializeShardRecords, opts.Parallelism
// workers per batch, under the directory tree it is given — the tree of the
// records it is streamed, which its caller already holds — and one batch of
// records. It trusts those records to be the tree's: a stream of foreign
// bytes is validated (a TreeSink) before it reaches a writer. The tree it
// writes is Image.Materialize's: content streams are keyed by file ID alone.
type MaterializeSink struct {
	tree *namespace.Tree
	root string
	opts MaterializeOptions
	// fold, when non-nil, takes each directory's line of the canonical
	// digest as it streams, and each batch's file lines once the batch is on
	// disk.
	fold     *DigestFold
	dirs     int // directory records taken
	dirsMade int
	batch    []File
	written  int64
}

// NewMaterializeSink starts a streaming materialization under root of the
// records of tree. opts.Seed must carry the content seed (there is no image
// to default from). fold may be nil; otherwise opts must not be
// MetadataOnly: without content there is nothing to attest.
func NewMaterializeSink(root string, tree *namespace.Tree, opts MaterializeOptions, fold *DigestFold) *MaterializeSink {
	return &MaterializeSink{tree: tree, root: root, opts: opts, fold: fold}
}

// AddDir takes the next directory, the tree's next.
func (s *MaterializeSink) AddDir(d DirRecord) error {
	s.dirs++
	if s.fold != nil {
		s.fold.AddDir(s.tree, d.ID)
	}
	return nil
}

// AddFile takes the next file, and writes the batch it completes.
func (s *MaterializeSink) AddFile(f File) error {
	if s.batch = append(s.batch, f); len(s.batch) < materializeBatch {
		return nil
	}
	return s.flush()
}

// Close writes what is still held.
func (s *MaterializeSink) Close() error { return s.flush() }

// flush creates the directories not yet made and writes the files held. The
// options' context is polled between the files of a batch, so a cancelled
// materialization fails at its next batch instead of draining the stream
// onto disk.
func (s *MaterializeSink) flush() error {
	dirs := make([]int, s.dirs-s.dirsMade)
	for i := range dirs {
		dirs[i] = s.dirsMade + i
	}
	s.dirsMade += len(dirs)
	batch, opts := s.batch, s.opts
	s.batch = s.batch[:0]
	if s.fold != nil {
		opts.Digests = make([]string, len(batch))
	}
	n, err := MaterializeShardRecords(s.root, s.tree, dirs, batch, opts)
	s.written += n
	if err != nil || s.fold == nil {
		return err
	}
	for k, f := range batch {
		s.fold.AddFile(s.tree, f, opts.Digests[k])
	}
	return nil
}

// Written returns the bytes written so far.
func (s *MaterializeSink) Written() int64 { return s.written }

// openFlags creates or truncates a file for writing. O_CLOEXEC keeps the
// descriptor out of any process started while it is open.
const openFlags = syscall.O_CREAT | syscall.O_WRONLY | syscall.O_TRUNC | syscall.O_CLOEXEC

// writeFile creates one file through a raw descriptor — no *os.File, so no
// poller registration and no finalizer — and closes it on every path.
func writeFile(path string, f File, opts MaterializeOptions, rng *stats.RNG, sum hash.Hash) error {
	fd, err := syscall.Open(path, openFlags, filePerm)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, openFlags, filePerm)
	}
	if err != nil {
		return fmt.Errorf("fsimage: creating file %q: %w", path, err)
	}
	switch {
	case opts.MetadataOnly && f.Size > 0:
		err = syscall.Ftruncate(fd, f.Size)
		for err == syscall.EINTR {
			err = syscall.Ftruncate(fd, f.Size)
		}
		if err != nil {
			err = fmt.Errorf("fsimage: truncating %q: %w", path, err)
		}
	case !opts.MetadataOnly:
		err = writeContent(fd, path, f, opts, rng, sum)
	}
	if cerr := syscall.Close(fd); cerr != nil && err == nil {
		err = fmt.Errorf("fsimage: closing %q: %w", path, cerr)
	}
	return err
}

// writeContent generates the file's content onto fd through a pooled
// fdWriter and flushes it.
func writeContent[FD any](fd FD, path string, f File, opts MaterializeOptions, rng *stats.RNG, sum hash.Hash) error {
	w := writerPool.Get().(*fdWriter[FD])
	defer writerPool.Put(w)
	w.fd = fd
	w.buf.Reset(w) // clears what a failed file left buffered
	var dst io.Writer = w.buf
	if sum != nil {
		// The hash taps the generator's output directly, before buffering, so
		// it observes exactly the bytes that reach the file.
		dst = io.MultiWriter(w.buf, sum)
	}
	if err := opts.Registry.ForExtension(f.Ext).Generate(dst, f.Size, rng); err != nil {
		return fmt.Errorf("fsimage: writing content for %q: %w", path, err)
	}
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("fsimage: flushing %q: %w", path, err)
	}
	return nil
}

// writerPool recycles fdWriters and their 64 KB buffers, so concurrent shard
// workers stop allocating either for every file.
var writerPool = sync.Pool{New: func() any { return newFDWriter(syscall.Write) }}

// fdWriter is an io.Writer over a raw descriptor, with the buffer that
// flushes into it. FD is whatever syscall.Open returns — an int on Unix, a
// Handle on Windows — so one definition serves every platform without a
// build tag.
type fdWriter[FD any] struct {
	fd    FD
	write func(FD, []byte) (int, error) // syscall.Write
	buf   *bufio.Writer
}

func newFDWriter[FD any](write func(FD, []byte) (int, error)) *fdWriter[FD] {
	w := &fdWriter[FD]{write: write}
	w.buf = bufio.NewWriterSize(w, 64*1024)
	return w
}

// Write writes all of p: write(2) is retried when a signal interrupts it and
// after a short write, and a write that makes no progress is
// io.ErrShortWrite.
func (w *fdWriter[FD]) Write(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := w.write(w.fd, p[n:])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return n, err
		case m == 0:
			return n, io.ErrShortWrite
		default:
			n += m
		}
	}
	return n, nil
}
