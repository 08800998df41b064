package fsimage

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"syscall"

	"impressions/internal/content"
	"impressions/internal/namespace"
)

// Every image is written with the same permissions: its bytes, and how an
// extracted tree looks, are a function of spec and seed alone.
const (
	dirPerm  = 0o755
	filePerm = 0o644
)

// MaterializeOptions configures the body engine (body.go), which every
// image writer is: the VFS writer (MaterializeSink, Image.Materialize) and
// the archive sinks of package imgfmt, whose Options is this type. The zero
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
// returns the number of bytes written: its records streamed into a
// MaterializeSink. A write that fails reports nothing: opts.OnDigest and
// opts.Fold take the image once every file is on disk.
func (img *Image) Materialize(root string, opts MaterializeOptions) (int64, error) {
	opts = opts.WithDefaults(img.Spec.Seed)
	report := opts
	var sums []string // each file's content hash, in the image's order
	opts.OnDigest, opts.Fold = nil, nil
	if report.OnDigest != nil || report.Fold != nil {
		opts.OnDigest = func(_ File, sum string) { sums = append(sums, sum) }
	}
	sink := NewMaterializeSink(root, img.Tree, opts)
	if err := cmp.Or(img.StreamRecords(sink), sink.Close()); err != nil || opts.OnDigest == nil || opts.MetadataOnly {
		return sink.Written(), err
	}
	if report.Fold != nil {
		for id := range img.Tree.Len() {
			report.Fold.AddDir(img.Tree, id)
		}
	}
	for i, f := range img.Files {
		if report.OnDigest != nil {
			report.OnDigest(f, sums[i])
		}
		if report.Fold != nil {
			report.Fold.AddFile(f, sums[i])
		}
	}
	return sink.Written(), nil
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

// MaterializeSink is the VFS writer, behind Image.Materialize and every
// directory target of the distributed executor: the body engine with a
// directory under root as its destination. It writes under the tree it is
// given, the records' own, and trusts the records to be the tree's: foreign
// bytes are validated (a TreeSink) before they reach a writer. AddDir
// creates each directory on the caller, before the first file; the workers
// create the files, each through one raw descriptor (fileCreator,
// writeFile) closed on every path. Files written stay after a failure.
type MaterializeSink struct {
	bodyEngine
	root string
	path []byte // one buffer serves every directory
}

// NewMaterializeSink starts a streaming materialization under root of the
// records of tree. opts.Seed must carry the content seed (there is no image
// to default from).
func NewMaterializeSink(root string, tree *namespace.Tree, opts MaterializeOptions) *MaterializeSink {
	s := &MaterializeSink{bodyEngine: bodyEngine{tree: tree}, root: root}
	s.init(opts.WithDefaults(opts.Seed), s)
	return s
}

// AddDir creates the directory d names in the sink's tree.
func (s *MaterializeSink) AddDir(d DirRecord) error {
	s.path = appendEntryPath(s.path, s.root, s.tree, d.ID, "")
	// One mkdir(2) in the common case; MkdirAll sorts out the rest: a
	// directory already there (a resume), a missing ancestor, the root
	// included, or a non-directory in the way.
	if p := string(s.path); os.Mkdir(p, dirPerm) != nil {
		if err := os.MkdirAll(p, dirPerm); err != nil {
			return s.Fail(fmt.Errorf("fsimage: creating directory %q: %w", p, err))
		}
	}
	s.bodyEngine.AddDir(s.tree, d.ID)
	return nil
}

func (s *MaterializeSink) span(f File) (int64, error) { return f.Size, nil }

func (s *MaterializeSink) worker(context.Context) bodyWorker { return newFileCreator(s.root, s.tree) }

func (c *fileCreator) start(*bodyRun)     {}
func (c *fileCreator) end(*bodyRun) error { return nil }

// put creates f and fills and closes it, and names the file in an error.
func (c *fileCreator) put(f File, fill func(io.Writer) error) error {
	if step, err := c.write(f, fill); err != nil {
		return fmt.Errorf("fsimage: %s %q: %w", step, appendEntryPath(nil, c.root, c.tree, f.DirID, f.Name), err)
	}
	return nil
}

// openFlags creates or truncates a file for writing. O_CLOEXEC keeps the
// descriptor out of any process started while it is open.
const openFlags = syscall.O_CREAT | syscall.O_WRONLY | syscall.O_TRUNC | syscall.O_CLOEXEC

// writeFile fills the file just created on fd — its content, which fill
// writes, or with fill nil (MetadataOnly) its size — through a pooled
// fdWriter, and closes fd on every path. A failure comes back with the step
// that failed; the caller names the file.
func writeFile[FD any](fd FD, f File, fill func(io.Writer) error) (step string, err error) {
	w := writerPool.Get().(*fdWriter[FD])
	defer writerPool.Put(w)
	w.fd = fd
	switch {
	case fill == nil && f.Size > 0:
		step, err = "truncating", w.truncate(fd, f.Size)
		for err == syscall.EINTR {
			err = w.truncate(fd, f.Size)
		}
	case fill != nil:
		w.buf.Reset(w) // clears what a failed file left buffered
		if step, err = "writing content for", fill(w.buf); err == nil {
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
