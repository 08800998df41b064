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

// MaterializeOptions configures every image writer: the VFS writer
// (Image.Materialize, MaterializeShardRecords, MaterializeSink) and the
// archive sinks of package imgfmt, whose Options is this type. The zero
// value is usable.
type MaterializeOptions struct {
	// Registry supplies per-extension content generators. If nil, the default
	// content policy is used.
	Registry *content.Registry
	// Seed drives content generation; the same seed regenerates identical
	// content. If zero, the image spec's seed is used; writers without an
	// image take it as given, so their callers pass the plan or spec seed.
	Seed int64
	// MetadataOnly writes no content: a VFS file is truncated to its size, an
	// archive entry keeps its full size in zeros. It is much faster and
	// sufficient for metadata-only studies. Nothing is hashed, so OnDigest
	// and Fold get nothing.
	MetadataOnly bool
	// Parallelism is the number of workers generating and writing files; 0
	// selects runtime.NumCPU(), 1 is one worker. Every file's content is
	// drawn from a stream derived from the seed and the file's ID, so the
	// written bytes, the OnDigest sequence and the folded digest are
	// identical at every parallelism level.
	Parallelism int
	// Context, when non-nil, cancels the write: the workers poll it between
	// files and stop with its error. What is written stays in place, so
	// callers that need a clean tree write into a staging directory. A nil
	// Context never cancels.
	Context context.Context
	// OnDigest, when non-nil, observes each file's content SHA-256 (hex):
	// once per file, in the order the files were given, on the goroutine
	// that calls the writer (so it needs no locking), once the file's bytes
	// are written — for a sink possibly during a later AddFile, always
	// before Close returns. After a failure no further calls are made.
	OnDigest func(f File, sha256 string)
	// Fold, when non-nil, folds the canonical image digest in the write
	// pass: each directory the writer is given (the root included), then
	// each file's entry beside its content hash, under the same rules as
	// OnDigest. Its Sum succeeds once one writer has fed it the whole image.
	Fold *DigestFold
}

// WithDefaults fills in the option defaults; a zero Seed falls back to
// fallbackSeed (writers without an image pass opts.Seed).
func (opts MaterializeOptions) WithDefaults(fallbackSeed int64) MaterializeOptions {
	if opts.Registry == nil {
		opts.Registry = content.NewRegistry(content.KindDefault)
	}
	if opts.Seed == 0 {
		opts.Seed = fallbackSeed
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	if opts.Context == nil {
		opts.Context = context.Background()
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
	return MaterializeShardRecords(root, img.Tree, dirs, img.Files, opts.WithDefaults(img.Spec.Seed))
}

// MaterializeShardRecords is the VFS writer: it creates the given
// directories (tree IDs, ascending so parents precede children; a missing
// ancestor is created on the way) in one serial pass, then writes files in
// the order given — canonical order, or a run of it, so each directory's
// files come together — with opts.Parallelism workers. Image.Materialize,
// every MaterializeSink batch, every directory target of the distributed
// executor and each of its journal batches are calls to it. The root itself
// is created if missing.
// opts.Seed is used as given — callers without an image pass the plan or
// spec seed.
//
// Each worker takes a chunk of files, so its files come as runs of one
// directory and two workers seldom contend for one. On Linux a worker opens
// a directory once per run (O_RDONLY|O_DIRECTORY|O_CLOEXEC: the syscall
// package has no O_PATH) and creates the run's files with openat(2) against
// that descriptor, so no create walks the path from the root; the
// descriptor is closed when the run ends and on every failure. Elsewhere
// each file is opened by its full path. Each file's bytes come from its own
// stream, keyed by the seed and the file ID alone, so the tree is identical
// at every parallelism and in every order. The first failed write stops
// every worker at its next chunk of files, the context's cancellation at
// its next file, and is the error returned; files already written stay in
// place.
//
// With opts.OnDigest or opts.Fold the workers hash each file as they write
// it, into a slot per file. Once every file of the call is on disk,
// opts.Fold takes the given directories, then each file beside its hash in
// the order given, as opts.OnDigest does. A failed call reports nothing.
//
// Each directory is one mkdir(2) unless it cannot be (then MkdirAll's
// checks run); each file is one raw descriptor opened with O_CLOEXEC,
// written through a pooled buffer whose write(2)s are retried on EINTR and
// after short writes (Ftruncate'd instead under MetadataOnly), and closed on
// every path, its close error checked. No *os.File is made, so nothing but
// this function closes a descriptor it opened. A file's path is built only
// for the error that names it.
func MaterializeShardRecords(root string, tree *namespace.Tree, dirs []int, files []File, opts MaterializeOptions) (int64, error) {
	opts = opts.WithDefaults(opts.Seed)
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

	var sums []string // each file's content hash, positional in files
	if (opts.OnDigest != nil || opts.Fold != nil) && !opts.MetadataOnly {
		sums = make([]string, len(files))
	}
	ctx := opts.Context
	streams := NewContentStreams(opts.Seed)
	var written atomic.Int64
	err := parallel.RunChunks(ctx, opts.Parallelism, len(files), func(lo, hi int) error {
		var (
			c   = newFileCreator(root, tree)
			sum hash.Hash // taps the content when digests are wanted
			raw [sha256.Size]byte
			n   int64
		)
		if sums != nil {
			sum = sha256.New()
		}
		defer func() { written.Add(n) }()
		defer c.close()
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f := files[i]
			if step, err := c.write(f, opts, streams.File(f.ID), sum); err != nil {
				return fmt.Errorf("fsimage: %s %q: %w", step, appendEntryPath(nil, root, tree, f.DirID, f.Name), err)
			}
			if sum != nil {
				sums[i] = hex.EncodeToString(sum.Sum(raw[:0]))
				sum.Reset()
			}
			n += f.Size
		}
		return nil
	})
	if err != nil || sums == nil {
		return written.Load(), err
	}
	if opts.Fold != nil {
		for _, id := range dirs {
			opts.Fold.AddDir(tree, id)
		}
	}
	for i, f := range files {
		if opts.OnDigest != nil {
			opts.OnDigest(f, sums[i])
		}
		if opts.Fold != nil {
			opts.Fold.AddFile(f, sums[i])
		}
	}
	return written.Load(), nil
}

// FilePath renders the slash-separated path of file records relative to the
// tree root — the name a file has in every archive format — in one reused
// buffer. It renders a directory's part only
// when the directory changes, which in canonical order is once per
// directory. The zero value is ready to use.
type FilePath struct {
	tree   *namespace.Tree
	dir, n int // n: the length of dir's part of buf, its slash included
	buf    []byte
}

// Append returns f's path in tree, valid until the next call.
func (p *FilePath) Append(tree *namespace.Tree, f File) []byte {
	if tree != p.tree || f.DirID != p.dir {
		p.tree, p.dir = tree, f.DirID
		if p.buf = tree.AppendPath(p.buf[:0], f.DirID); len(p.buf) > 0 {
			p.buf = append(p.buf, '/')
		}
		p.n = len(p.buf)
	}
	p.buf = append(p.buf[:p.n], f.Name...)
	return p.buf
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
// writes is Image.Materialize's: content streams are keyed by file ID alone,
// and opts.OnDigest and opts.Fold take each batch as MaterializeShardRecords
// reports it.
type MaterializeSink struct {
	tree     *namespace.Tree
	root     string
	opts     MaterializeOptions
	dirs     int // directory records taken
	dirsMade int
	batch    []File
	written  int64
}

// NewMaterializeSink starts a streaming materialization under root of the
// records of tree. opts.Seed must carry the content seed (there is no image
// to default from).
func NewMaterializeSink(root string, tree *namespace.Tree, opts MaterializeOptions) *MaterializeSink {
	return &MaterializeSink{tree: tree, root: root, opts: opts}
}

// AddDir takes the next directory, the tree's next.
func (s *MaterializeSink) AddDir(DirRecord) error {
	s.dirs++
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
	n, err := MaterializeShardRecords(s.root, s.tree, dirs, s.batch, s.opts)
	s.batch = s.batch[:0]
	s.written += n
	return err
}

// Written returns the bytes written so far.
func (s *MaterializeSink) Written() int64 { return s.written }

// openFlags creates or truncates a file for writing. O_CLOEXEC keeps the
// descriptor out of any process started while it is open.
const openFlags = syscall.O_CREAT | syscall.O_WRONLY | syscall.O_TRUNC | syscall.O_CLOEXEC

// writeFile fills the file just created on fd — its content, or under
// MetadataOnly its size — through a pooled fdWriter, and closes fd on every
// path. A failure comes back with the step that failed; the caller names
// the file.
func writeFile[FD any](fd FD, f File, opts MaterializeOptions, rng *stats.RNG, sum hash.Hash) (step string, err error) {
	w := writerPool.Get().(*fdWriter[FD])
	defer writerPool.Put(w)
	w.fd = fd
	switch {
	case opts.MetadataOnly && f.Size > 0:
		step, err = "truncating", w.truncate(fd, f.Size)
		for err == syscall.EINTR {
			err = w.truncate(fd, f.Size)
		}
	case !opts.MetadataOnly:
		w.buf.Reset(w) // clears what a failed file left buffered
		var dst io.Writer = w.buf
		if sum != nil {
			// The hash taps the generator's output directly, before
			// buffering, so it observes exactly the bytes that reach the file.
			dst = io.MultiWriter(w.buf, sum)
		}
		if step, err = "writing content for", opts.Registry.ForExtension(f.Ext).Generate(dst, f.Size, rng); err == nil {
			step, err = "flushing", w.buf.Flush()
		}
	}
	if cerr := w.close(fd); cerr != nil && err == nil {
		step, err = "closing", cerr
	}
	return step, err
}

// writerPool recycles fdWriters and their 64 KB buffers, so concurrent shard
// workers stop allocating either for every file.
var writerPool = sync.Pool{New: func() any { return newFDWriter(syscall.Write, syscall.Ftruncate, syscall.Close) }}

// fdWriter is an io.Writer over a raw descriptor, with the buffer that
// flushes into it and the calls that finish the file. FD is whatever
// syscall.Open returns — an int on Unix, a Handle on Windows — so one
// definition serves every platform without a build tag.
type fdWriter[FD any] struct {
	fd       FD
	write    func(FD, []byte) (int, error) // syscall.Write
	truncate func(FD, int64) error         // syscall.Ftruncate
	close    func(FD) error                // syscall.Close
	buf      *bufio.Writer
}

func newFDWriter[FD any](write func(FD, []byte) (int, error), truncate func(FD, int64) error, close func(FD) error) *fdWriter[FD] {
	w := &fdWriter[FD]{write: write, truncate: truncate, close: close}
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
