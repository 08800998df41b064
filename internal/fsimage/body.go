package fsimage

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"

	"impressions/internal/namespace"
)

// The body engine is the one place an image's files are generated, hashed
// and written, for every writer: the archive sinks of package imgfmt put
// them into an image file (ImageBody), the VFS writer into a directory
// (MaterializeSink).
//
//   - The goroutine calling AddFile and Close gives each file its span in
//     the destination (for an image file header, content and padding; for
//     a directory the content) and queues runs: consecutive files that fit
//     one chunk together, or one larger file, or bodyRunFiles files.
//   - Options.Parallelism workers take the runs in stream order and put
//     each file where the destination keeps it, its content from the core's
//     tap: the file's stream (ContentStreams) through its generator, hashed
//     when a digest is wanted and held to exactly the file's size. Under
//     MetadataOnly there is no content and the destination gives the file
//     its size alone.
//   - The caller collects the runs in order — OnDigest for their files, one
//     fold a run — at most a ring of runs behind.
//
// Nothing here depends on the destination but what a bodyDest says. The
// first error — a write, a generator, Options.Context — stops the workers
// before the caller sees it; the runs before the failed one are still
// collected, so what was reported is a prefix of the stream.
const (
	// bodyChunkSize is a worker's write unit; runs of small files are cut to
	// fit one, so the queue costs a channel operation per run, not per file.
	bodyChunkSize = 128 << 10
	// bodyRunsPerWorker runs a worker are queued or in progress. They hold
	// no content, so a deep ring is cheap and feeds the workers past a long
	// run at its head.
	bodyRunsPerWorker = 4
	// bodyRunFiles caps a run's files (empty files have no bytes to cut a
	// run by), which with the ring bounds how far OnDigest lags.
	bodyRunFiles = 256
)

// zeroBlock feeds MetadataOnly bodies of an image file and its padding.
var zeroBlock [32 * 1024]byte

// errSinkClosed poisons the engine after Close, so that a sink used past
// its Close fails instead of waiting for workers that are gone.
var errSinkClosed = errors.New("fsimage: sink used after Close")

// bodyRun is a run of consecutive files handed to one worker.
type bodyRun struct {
	files    []File
	off, end int64 // the run's spans are [off, end) of the destination
	// The files' SHA-256, for OnDigest, and digest entries, for the fold,
	// stored by the worker before it sends its verdict on done (cap 1).
	sums    [][sha256.Size]byte
	entries []byte
	done    chan error
}

// A bodyDest is where the engine puts files: span, on the caller's
// goroutine, is what f takes there, which places it and cuts runs; worker
// is one worker's end of it, which stops at its first write after ctx ends.
type bodyDest interface {
	span(f File) (int64, error)
	worker(ctx context.Context) bodyWorker
}

// A bodyWorker writes the runs one worker takes: start and end around each
// run, put for each file, with its content from fill (nil under
// MetadataOnly: the file gets its size alone), and close when the worker
// stops.
type bodyWorker interface {
	start(r *bodyRun)
	put(f File, fill func(io.Writer) error) error
	end(r *bodyRun) error
	close()
}

type bodyEngine struct {
	opts    MaterializeOptions
	streams ContentStreams
	dst     bodyDest
	// tree is the tree the files are named from. The sink sets it before
	// the first file; once files flow only its directories' file counters
	// change, which no worker reads.
	tree *namespace.Tree
	pos  int64 // the offset of the destination's next span

	// runs is a ring: [head, tail) are queued and not yet collected,
	// runs[tail%len] is being filled by AddFile.
	runs       []bodyRun
	head, tail int
	fillBytes  int64
	jobs       chan *bodyRun // cap len(runs): sends never block

	workCtx context.Context    // the workers', which ends when they stop
	cancel  context.CancelFunc // stops them
	wg      sync.WaitGroup

	err       error // first failure, or errSinkClosed
	written   int64 // content bytes of the runs collected so far
	collected int   // files of the runs collected so far
}

// init readies e to feed dst; opts has its defaults filled in.
func (e *bodyEngine) init(opts MaterializeOptions, dst bodyDest) {
	if opts.MetadataOnly {
		// Nothing is content: nobody is told its hashes.
		opts.OnDigest, opts.Fold = nil, nil
	}
	e.opts, e.dst = opts, dst
	e.streams = NewContentStreams(opts.Seed)
	e.workCtx, e.cancel = context.WithCancel(opts.Context)
}

// AddDir takes the sink's next directory, id, of tree, the tree the files
// that follow are named from; an attached fold takes the directory here.
func (e *bodyEngine) AddDir(tree *namespace.Tree, id int) {
	e.tree = tree
	if e.opts.Fold != nil {
		e.opts.Fold.AddDir(tree, id)
	}
}

// AddFile queues the next file. Earlier files may be collected during the
// call; this one is by a later AddFile or by Close.
func (e *bodyEngine) AddFile(f File) error {
	if e.err != nil {
		return e.err
	}
	if err := e.opts.Context.Err(); err != nil {
		return e.Fail(err)
	}
	if e.runs == nil {
		e.runs = make([]bodyRun, bodyRunsPerWorker*e.opts.Parallelism+1)
		e.jobs = make(chan *bodyRun, len(e.runs))
		e.wg.Add(e.opts.Parallelism)
		for range e.opts.Parallelism {
			go e.work(e.workCtx)
		}
	}
	span, err := e.dst.span(f)
	if err != nil {
		return e.Fail(err)
	}
	if e.fillBytes+span > bodyChunkSize {
		if err := e.Cut(); err != nil {
			return err
		}
	}
	r := &e.runs[e.tail%len(e.runs)]
	r.files = append(r.files, f)
	e.fillBytes += span
	e.pos += span
	if e.fillBytes >= bodyChunkSize || len(r.files) == bodyRunFiles {
		return e.Cut()
	}
	return nil
}

// Cut queues the run being filled, so that the next file starts a run of
// its own, and, when that leaves no free slot to fill next, collects the
// oldest queued run.
func (e *bodyEngine) Cut() error {
	if e.err != nil {
		return e.err
	}
	if e.runs == nil || len(e.runs[e.tail%len(e.runs)].files) == 0 {
		return nil
	}
	r := &e.runs[e.tail%len(e.runs)]
	r.off, r.end = e.pos-e.fillBytes, e.pos
	if r.done == nil {
		r.done = make(chan error, 1)
	}
	if e.opts.OnDigest != nil || e.opts.Fold != nil {
		r.sums = slices.Grow(r.sums[:0], len(r.files))[:len(r.files)]
	}
	e.jobs <- r
	e.tail++
	e.fillBytes = 0
	if e.tail-e.head == len(e.runs) {
		return e.collect()
	}
	return nil
}

// collect waits for the oldest queued run, reports its files — OnDigest,
// the fold — and frees its slot.
func (e *bodyEngine) collect() error {
	r := &e.runs[e.head%len(e.runs)]
	var err error
	select {
	case err = <-r.done:
	case <-e.opts.Context.Done():
	}
	if err = cmp.Or(err, e.opts.Context.Err()); err != nil {
		return e.Fail(err)
	}
	for i, f := range r.files {
		e.written += f.Size
		if e.opts.OnDigest != nil {
			e.opts.OnDigest(f, hex.EncodeToString(r.sums[i][:]))
		}
	}
	if e.opts.Fold != nil {
		e.opts.Fold.AddFiles(r.files, r.entries)
	}
	e.collected += len(r.files)
	r.files = r.files[:0]
	e.head++
	return nil
}

// Close collects everything still queued and stops the workers. An
// ImageBody's Write and Flush still take the sink's last bytes.
func (e *bodyEngine) Close() error {
	if e.err != nil {
		return e.err
	}
	if err := e.opts.Context.Err(); err != nil {
		return e.Fail(err)
	}
	if err := e.Cut(); err != nil {
		return err
	}
	for e.head < e.tail {
		if err := e.collect(); err != nil {
			return err
		}
	}
	e.stop()
	e.err = errSinkClosed
	return nil
}

// Fail stops and joins the workers, then records and returns err. Sinks
// pass every error they return after the first file through it, and so
// does a caller that abandons a sink for a failure of its own: callers do
// not Close a failed sink, so nothing else would stop the workers.
func (e *bodyEngine) Fail(err error) error {
	e.stop()
	if e.err == nil {
		e.err = err
	}
	return err
}

// Written returns the content bytes of the files collected so far.
func (e *bodyEngine) Written() int64 { return e.written }

// Collected returns how many files are collected so far: a prefix of the
// stream, written, reported and, in a directory, closed.
func (e *bodyEngine) Collected() int { return e.collected }

func (e *bodyEngine) stop() {
	e.cancel()
	e.wg.Wait()
}

// work is one worker: it puts queued runs until the context ends or a run
// fails.
func (e *bodyEngine) work(ctx context.Context) {
	defer e.wg.Done()
	w := e.dst.worker(ctx)
	defer w.close()
	tap := contentTap{e: e}
	if e.opts.OnDigest != nil || e.opts.Fold != nil {
		tap.h = sha256.New()
	}
	fill := tap.fill
	if e.opts.MetadataOnly {
		fill = nil
	}
	for {
		select {
		case <-ctx.Done():
			return
		case r := <-e.jobs:
			err := e.run(ctx, w, &tap, fill, r)
			r.done <- err
			if err != nil {
				return
			}
		}
	}
}

// run puts every file of the run, hashing them on the way, and checks the
// context between files.
func (e *bodyEngine) run(ctx context.Context, w bodyWorker, tap *contentTap, fill func(io.Writer) error, r *bodyRun) error {
	w.start(r)
	entries := r.entries[:0]
	for i, f := range r.files {
		if err := ctx.Err(); err != nil {
			return err
		}
		tap.f = f
		if err := w.put(f, fill); err != nil {
			return err
		}
		if tap.h != nil {
			sum := tap.h.Sum(r.sums[i][:0])
			if e.opts.Fold != nil {
				entries = AppendFileEntry(entries, f.Name, f.Size, sum)
			}
		}
	}
	r.entries = entries
	return w.end(r)
}

// contentTap is a worker's content: fill runs the file's generator on its
// own stream into the destination's writer through Write, which hashes
// what passes and refuses what would run past the file's size.
type contentTap struct {
	e    *bodyEngine
	f    File      // the file being filled
	w    io.Writer // where its content goes
	left int64     // content bytes it still has to get
	h    hash.Hash // nil when no digests are wanted
}

func (t *contentTap) fill(w io.Writer) error {
	t.w, t.left = w, t.f.Size
	if t.h != nil {
		t.h.Reset()
	}
	gen := t.e.opts.Registry.ForExtension(t.f.Ext)
	err := gen.Generate(t, t.f.Size, t.e.streams.File(t.f.ID))
	if err == nil && t.left != 0 {
		err = fmt.Errorf("generator %s stopped %d bytes short", gen.Name(), t.left)
	}
	return err
}

// Write takes a file's content from its generator.
func (t *contentTap) Write(p []byte) (int, error) {
	if int64(len(p)) > t.left {
		// The image has exactly Size bytes per file; more would run into
		// the next entry, or leave a file of the wrong size.
		return 0, fmt.Errorf("%d bytes past the end of the file", int64(len(p))-t.left)
	}
	t.left -= int64(len(p))
	if t.h != nil {
		t.h.Write(p)
	}
	return t.w.Write(p)
}

// ImageBody is the body engine's image-file destination, under the archive
// sinks of package imgfmt: each worker puts the files of its runs into its
// one chunk as the image holds them, the sink's Framing around each file's
// content (zeros under MetadataOnly), and writes each full chunk at its
// offset (pwrite(2) on a file, nothing on io.Discard). What a sink frames
// itself (tar directory headers and trailer, squashfs superblock and
// tables) goes through Write. A destination that cannot seek gets the same
// engine through inOrder. A method that returns an error has stopped the
// workers: a failed ImageBody needs no Close.
type ImageBody struct {
	bodyEngine
	framing Framing
	out     io.WriterAt // takes the image's bytes at their offsets; nil keeps none
	own     chunker     // what Write took and has not written
	path    FilePath    // the caller's, to size headers
}

// Framing is what an archive writes around each file's content: the header
// of the entry named name, of size bytes of content, which AppendHeader
// renders and HeaderLen measures, and Padding zero bytes after it. Its
// methods run on the caller's goroutine and on every worker at once.
type Framing interface {
	HeaderLen(name []byte, size int64) (int64, error)
	AppendHeader(dst, name []byte, size int64) ([]byte, error)
	Padding(size int64) int
}

// NewImageBody starts an image body onto w, from w's offset; opts has its
// defaults filled in. framing is nil for bare bodies (squashfs).
func NewImageBody(opts MaterializeOptions, w io.Writer, framing Framing) *ImageBody {
	b := &ImageBody{framing: framing}
	b.init(opts, b)
	b.out = destination(w, b.workCtx.Done(), bodyRunsPerWorker*bodyChunkSize*opts.Parallelism)
	b.own = chunker{ctx: opts.Context, dst: b.out}
	return b
}

// Pos is the image's size so far.
func (b *ImageBody) Pos() int64 { return b.pos }

// Write takes bytes the sink frames itself, at the image's next offset,
// into a chunk of its own, written when full, at the first file (span) or
// on Flush. A sink writes none between its first file and Close (TreeSink
// refuses a directory after a file), so no queued run is ahead of them.
func (b *ImageBody) Write(p []byte) (int, error) {
	if b.own.fill == 0 {
		b.own.off = b.pos
	}
	b.pos += int64(len(p))
	return b.own.Write(p)
}

// Flush writes what Write holds.
func (b *ImageBody) Flush() error { return b.own.flush() }

func (b *ImageBody) span(f File) (int64, error) {
	if b.own.fill > 0 {
		if err := b.own.flush(); err != nil {
			return 0, err
		}
	}
	if b.framing == nil {
		return f.Size, nil
	}
	hdr, err := b.framing.HeaderLen(b.path.Append(b.tree, f), f.Size)
	return f.Size + hdr + int64(b.framing.Padding(f.Size)), err
}

func (b *ImageBody) worker(ctx context.Context) bodyWorker {
	return &chunker{ctx: ctx, dst: b.out, body: b}
}

// destination returns where the engine writes w's image, from the offset w
// stands at: nowhere for io.Discard; w itself when it can seek and write at
// offsets; otherwise an inOrder over it.
func destination(w io.Writer, quit <-chan struct{}, hold int) io.WriterAt {
	if w == io.Discard {
		return nil
	}
	var base int64
	err := errors.ErrUnsupported // w cannot seek
	if s, ok := w.(io.Seeker); ok {
		base, err = s.Seek(0, io.SeekCurrent)
	}
	if wa, ok := w.(io.WriterAt); ok && err == nil {
		return io.NewOffsetWriter(wa, base)
	}
	return &inOrder{w: w, quit: quit, hold: hold, held: map[int64][]byte{}, turn: make(chan struct{})}
}

// inOrder is the io.WriterAt of a destination that cannot seek. The write
// at the next offset due goes to w at once, and then every held write it
// makes due; a later one is copied and held, up to hold bytes, so that its
// worker goes on, and past them waits for its turn.
type inOrder struct {
	w     io.Writer
	quit  <-chan struct{}
	hold  int
	mu    sync.Mutex
	next  int64            // the offset of w's next byte
	held  map[int64][]byte // writes ahead of next, by offset
	size  int              // their bytes
	spare [][]byte         // buffers of held writes since written
	turn  chan struct{}    // closed, and replaced, as next moves
}

func (o *inOrder) WriteAt(p []byte, off int64) (int, error) {
	o.mu.Lock()
	for off != o.next {
		if o.size+len(p) <= o.hold {
			var buf []byte
			if n := len(o.spare); n > 0 {
				buf, o.spare = o.spare[n-1], o.spare[:n-1]
			}
			o.held[off] = append(buf[:0], p...)
			o.size += len(p)
			o.mu.Unlock()
			return len(p), nil
		}
		turn := o.turn
		o.mu.Unlock()
		select {
		case <-turn:
		case <-o.quit:
			return 0, context.Canceled // the engine stopped
		}
		o.mu.Lock()
	}
	// Only the write at next runs: the others are held or wait for it.
	for q, held := p, false; ; held = true {
		o.mu.Unlock()
		if n, err := o.w.Write(q); n < len(q) || err != nil {
			return 0, cmp.Or(err, io.ErrShortWrite) // a short write is an error
		}
		o.mu.Lock()
		if held {
			o.size -= len(q)
			o.spare = append(o.spare, q)
		}
		o.next += int64(len(q))
		close(o.turn)
		o.turn = make(chan struct{})
		if q = o.held[o.next]; q == nil {
			o.mu.Unlock()
			return len(p), nil
		}
		delete(o.held, o.next)
	}
}

// chunker packs bytes into a chunk of the image and writes each full one at
// its offset: the caller's (ImageBody.own) for what the sink frames itself,
// and one a worker, whose bodyWorker it is.
type chunker struct {
	ctx  context.Context
	dst  io.WriterAt // nil: nothing is kept, or copied
	body *ImageBody  // a worker's: the framing and the tree
	buf  []byte      // the chunk, allocated on first use
	fill int         // bytes of the chunk in hand
	off  int64       // the image offset of the chunk's first byte

	// Scratch, reused from file to file: the entry's path and header.
	hdr   []byte
	paths FilePath
}

func (c *chunker) start(r *bodyRun) { c.off, c.fill = r.off, 0 }

// put frames f into the image: header, content (zeros with MetadataOnly),
// padding.
func (c *chunker) put(f File, fill func(io.Writer) error) error {
	framing := c.body.framing
	if framing != nil {
		var err error
		if c.hdr, err = framing.AppendHeader(c.hdr[:0], c.paths.Append(c.body.tree, f), f.Size); err != nil {
			return err
		}
		if _, err := c.Write(c.hdr); err != nil {
			return err
		}
	}
	if fill == nil {
		for left := f.Size; left > 0; left -= int64(len(zeroBlock)) {
			if _, err := c.Write(zeroBlock[:min(left, int64(len(zeroBlock)))]); err != nil {
				return err
			}
		}
	} else if err := fill(c); err != nil {
		return fmt.Errorf("fsimage: generating content for file %d: %w", f.ID, err)
	}
	if framing != nil {
		_, err := c.Write(zeroBlock[:framing.Padding(f.Size)])
		return err
	}
	return nil
}

// end writes the run's last chunk and checks that its files took the
// spans they were given.
func (c *chunker) end(r *bodyRun) error {
	if err := c.flush(); err != nil {
		return err
	}
	if c.off != r.end {
		return fmt.Errorf("fsimage: internal error: files %d to %d took %d bytes, %d were framed for them",
			r.files[0].ID, r.files[len(r.files)-1].ID, c.off-r.off, r.end-r.off)
	}
	return nil
}

func (c *chunker) close() {}

// Write packs p into the chunk, writing it each time it fills: a file's
// content from the content tap, and everything else the image holds.
func (c *chunker) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		n := min(len(p), bodyChunkSize-c.fill)
		if c.dst != nil {
			if c.buf == nil {
				c.buf = make([]byte, bodyChunkSize)
			}
			copy(c.buf[c.fill:], p[:n])
		}
		c.fill += n
		p = p[n:]
		if c.fill == bodyChunkSize {
			if err := c.flush(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

// flush writes the chunk in hand at its offset. Between chunks is where a
// worker notices that it was stopped.
func (c *chunker) flush() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if c.dst != nil && c.fill > 0 {
		// A short write with no error is io.ErrShortWrite, as in inOrder.
		n, err := c.dst.WriteAt(c.buf[:c.fill], c.off)
		if n < c.fill && err == nil {
			err = io.ErrShortWrite
		}
		if err != nil {
			return fmt.Errorf("fsimage: writing image bytes %d to %d: %w", c.off, c.off+int64(c.fill), err)
		}
	}
	c.off += int64(c.fill)
	c.fill = 0
	return nil
}
