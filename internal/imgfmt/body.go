package imgfmt

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

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// The body engine is the one place file entries are framed, generated and
// hashed for every archive writer (TarSink, WriteSegment, SquashfsSink):
//
//   - The goroutine calling add/finish (the sink's AddFile/Close caller)
//     gives each file its offset, a running sum of what files take in the
//     image (for tar header, content and padding, the header as long as
//     tarHeaders renders it; for squashfs the content), and queues runs:
//     consecutive files that together fit one chunk, or one larger file.
//   - Options.Parallelism workers take the runs in stream order, put each
//     file into their one chunk as the image holds it — the content from
//     the file's stream (fsimage.ContentStreams), hashed as it goes, and
//     with a fsimage.DigestFold attached the file's digest entry — and write
//     each full chunk at its offset (io.WriterAt: pwrite(2) on a file,
//     nothing at all on io.Discard).
//   - The caller's in-order work is only what must be in order: as runs
//     complete, OnDigest for their files and one fold a run, at most a ring
//     of runs behind. What a sink frames itself (tar directory headers and
//     trailer, squashfs superblock and tables) goes through Write.
//
// A destination that cannot seek (a pipe, an HTTP response, a buffer) gets
// the same engine through inOrder, which holds a copy of up to
// bodyRunsPerWorker chunks a worker ahead of the next byte due; only past
// them does a worker wait for the runs ahead of its own. Bytes are a pure
// function of (seed, file); j = 1 is the same pipeline with one worker, and
// MetadataOnly the same pipeline with zeros for content. The first error —
// a write, a generator, Options.Context — stops the workers before the
// caller sees it.
const (
	// bodyChunkSize is a worker's write unit; runs of small files are cut to
	// fit one, so the queue costs a channel operation per run, not per file.
	bodyChunkSize = 128 << 10
	// bodyRunsPerWorker runs a worker are queued or in progress. They hold
	// no content, so a deep ring is cheap and feeds the workers past a long
	// run at its head.
	bodyRunsPerWorker = 4
	// bodyRunFiles caps a run's files (empty squashfs files have no bytes to
	// cut a run by), which with the ring bounds how far OnDigest lags.
	bodyRunFiles = 256
)

// zeroBlock feeds MetadataOnly entry bodies and every format's padding.
var zeroBlock [32 * 1024]byte

// errSinkClosed poisons the engine after finish, so that a sink used past
// its Close fails instead of waiting for workers that are gone.
var errSinkClosed = errors.New("imgfmt: sink used after Close")

// bodyRun is a run of consecutive files handed to one worker.
type bodyRun struct {
	files    []fsimage.File
	off, end int64 // the run's bytes are [off, end) of the image
	// The files' SHA-256, for OnDigest, and digest entries, for the fold,
	// stored by the worker before it sends its verdict on done (cap 1).
	sums    [][sha256.Size]byte
	entries []byte
	done    chan error
}

type bodyEngine struct {
	opts    Options
	ctx     context.Context // the caller's, Options.Context
	streams fsimage.ContentStreams
	// headers frames every file as a tar entry; nil (squashfs) leaves the
	// bodies bare.
	headers *tarHeaders
	// tree names the files' tar headers. The sink sets it
	// (addDir, or directly for a segment) before the first add; once files
	// flow only its directories' file counters change, which no worker reads.
	tree *namespace.Tree
	path fsimage.FilePath // the caller's, to size tar headers

	dst  io.WriterAt // takes the image's bytes at their offsets; nil keeps none
	base int64       // where the image starts in the destination
	pos  int64       // the offset of the image's next byte
	own  chunker     // what Write took and has not written

	// runs is a ring: [head, tail) are queued and not yet collected,
	// runs[tail%len] is being filled by add.
	runs       []bodyRun
	head, tail int
	fillBytes  int64
	jobs       chan *bodyRun // cap len(runs): sends never block

	workCtx context.Context    // the workers', which a write inOrder holds ends with
	cancel  context.CancelFunc // stops them
	wg      sync.WaitGroup

	err     error // first failure, or errSinkClosed
	written int64 // content bytes of the runs collected so far
}

// newBodyEngine takes opts with their defaults filled in, the sink's
// destination, and for tar the header builder.
func newBodyEngine(opts Options, w io.Writer, headers *tarHeaders) *bodyEngine {
	if opts.MetadataOnly {
		// Zeros are not content: nobody is told their hashes.
		opts.OnDigest, opts.Fold = nil, nil
	}
	e := &bodyEngine{
		opts:    opts,
		ctx:     opts.Context,
		streams: fsimage.NewContentStreams(opts.Seed),
		headers: headers,
	}
	e.workCtx, e.cancel = context.WithCancel(e.ctx)
	e.dst, e.base = destination(w, e.workCtx.Done(), bodyRunsPerWorker*bodyChunkSize*opts.Parallelism)
	e.own = chunker{ctx: e.ctx, dst: e.dst}
	return e
}

// destination returns where the engine writes w's image and from which of
// w's offsets, the one w stands at when it can seek (else 0): nowhere for
// io.Discard; w itself when it can also write at offsets; otherwise an
// inOrder over it.
func destination(w io.Writer, quit <-chan struct{}, hold int) (io.WriterAt, int64) {
	if w == io.Discard {
		return nil, 0
	}
	var base int64
	err := errors.ErrUnsupported // w cannot seek
	if s, ok := w.(io.Seeker); ok {
		base, err = s.Seek(0, io.SeekCurrent)
	}
	if wa, ok := w.(io.WriterAt); ok && err == nil {
		return io.NewOffsetWriter(wa, base), base
	}
	return &inOrder{w: fullWriter{w}, quit: quit, hold: hold, held: map[int64][]byte{}, turn: make(chan struct{})}, base
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
		if _, err := o.w.Write(q); err != nil {
			return 0, err
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

// addDir takes the sink's next directory, id, of tree, the tree the sink
// rebuilds from its stream: the files that follow are named from it, and an
// attached fold takes the directory here.
func (e *bodyEngine) addDir(tree *namespace.Tree, id int) {
	e.tree = tree
	if e.opts.Fold != nil {
		e.opts.Fold.AddDir(tree, id)
	}
}

// Write takes bytes the sink frames itself, at the image's next offset,
// into a chunk of its own that it writes when full, at the next run, or on
// Flush. A sink writes none between its first file and finish (TreeSink
// refuses a directory after a file), so no queued run is ahead of them.
func (e *bodyEngine) Write(p []byte) (int, error) {
	if e.own.fill == 0 {
		e.own.off = e.pos
	}
	e.pos += int64(len(p))
	return len(p), e.own.put(p)
}

// Flush writes what Write holds.
func (e *bodyEngine) Flush() error { return e.own.flush() }

// add queues the next file. Earlier files may be collected during the call;
// this one is by a later add or by finish.
func (e *bodyEngine) add(f fsimage.File) error {
	if e.err != nil {
		return e.err
	}
	if err := e.ctx.Err(); err != nil {
		return e.fail(err)
	}
	if e.runs == nil {
		e.runs = make([]bodyRun, bodyRunsPerWorker*e.opts.Parallelism+1)
		e.jobs = make(chan *bodyRun, len(e.runs))
		e.wg.Add(e.opts.Parallelism)
		for range e.opts.Parallelism {
			go e.work(e.workCtx)
		}
	}
	framed := f.Size
	if e.headers != nil {
		hdr, err := e.headers.file.length(e.path.Append(e.tree, f), f.Size)
		if err != nil {
			return e.fail(err)
		}
		framed += hdr + int64(tarPadding(f.Size))
	}
	if e.fillBytes+framed > bodyChunkSize {
		if err := e.submit(); err != nil {
			return err
		}
	}
	r := &e.runs[e.tail%len(e.runs)]
	r.files = append(r.files, f)
	e.fillBytes += framed
	e.pos += framed
	if e.fillBytes >= bodyChunkSize || len(r.files) == bodyRunFiles {
		return e.submit()
	}
	return nil
}

// submit queues the run being filled, behind what Write holds, and, when
// that leaves no free slot to fill next, collects the oldest queued run.
func (e *bodyEngine) submit() error {
	r := &e.runs[e.tail%len(e.runs)]
	if len(r.files) == 0 {
		return nil
	}
	if err := e.Flush(); err != nil {
		return e.fail(err)
	}
	r.off, r.end = e.pos-e.fillBytes, e.pos
	if r.done == nil {
		r.done = make(chan error, 1)
	}
	if e.opts.OnDigest != nil {
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
	case <-e.ctx.Done():
	}
	if err = cmp.Or(err, e.ctx.Err()); err != nil {
		return e.fail(err)
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
	r.files = r.files[:0]
	e.head++
	return nil
}

// finish collects everything still queued and stops the workers. Write and
// Flush still take the sink's last bytes.
func (e *bodyEngine) finish() error {
	if e.err != nil {
		return e.err
	}
	if err := e.ctx.Err(); err != nil {
		return e.fail(err)
	}
	if e.runs != nil {
		if err := e.submit(); err != nil {
			return err
		}
		for e.head < e.tail {
			if err := e.collect(); err != nil {
				return err
			}
		}
	}
	e.stop()
	e.err = errSinkClosed
	return nil
}

// fail stops and joins the workers, then records and returns err. Sinks
// pass every error they return after the first file through it: callers do
// not Close a failed sink, so nothing else would stop the workers.
func (e *bodyEngine) fail(err error) error {
	e.stop()
	if e.err == nil {
		e.err = err
	}
	return err
}

func (e *bodyEngine) stop() {
	e.cancel()
	e.wg.Wait()
}

// work is one worker: it frames queued runs until the context ends or a
// run fails.
func (e *bodyEngine) work(ctx context.Context) {
	defer e.wg.Done()
	c := chunker{ctx: ctx, dst: e.dst}
	if e.opts.OnDigest != nil || e.opts.Fold != nil {
		c.h = sha256.New()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case r := <-e.jobs:
			err := e.frameRun(&c, r)
			r.done <- err
			if err != nil {
				return
			}
		}
	}
}

// frameRun writes every file of the run through the chunker, at the run's
// offsets, and hashes them.
func (e *bodyEngine) frameRun(c *chunker, r *bodyRun) error {
	c.off, c.fill = r.off, 0
	entries := r.entries[:0]
	for i, f := range r.files {
		if err := e.frame(c, f); err != nil {
			return err
		}
		if c.h != nil {
			sum := c.h.Sum(c.sum[:0])
			if e.opts.OnDigest != nil {
				copy(r.sums[i][:], sum)
			}
			if e.opts.Fold != nil {
				entries = fsimage.AppendFileEntry(entries, f.Name, f.Size, sum)
			}
		}
	}
	r.entries = entries
	if err := c.flush(); err != nil {
		return err
	}
	if c.off != r.end {
		return fmt.Errorf("imgfmt: internal error: files %d to %d took %d bytes, %d were framed for them",
			r.files[0].ID, r.files[len(r.files)-1].ID, c.off-r.off, r.end-r.off)
	}
	return nil
}

// frame is the package's one generate-and-hash loop, and what puts a file
// into an image: header, content from the file's own ID-keyed stream (zeros
// with MetadataOnly), padding.
func (e *bodyEngine) frame(c *chunker, f fsimage.File) error {
	if e.headers != nil {
		var err error
		if c.hdr, err = e.headers.file.append(c.hdr[:0], c.paths.Append(e.tree, f), f.Size); err != nil {
			return err
		}
		if err := c.put(c.hdr); err != nil {
			return err
		}
	}
	c.left = f.Size
	if c.h != nil {
		c.h.Reset()
	}
	if e.opts.MetadataOnly {
		for c.left > 0 {
			if _, err := c.Write(zeroBlock[:min(c.left, int64(len(zeroBlock)))]); err != nil {
				return err
			}
		}
	} else {
		gen := e.opts.Registry.ForExtension(f.Ext)
		err := gen.Generate(c, f.Size, e.streams.File(f.ID))
		if err == nil && c.left != 0 {
			err = fmt.Errorf("generator %s stopped %d bytes short", gen.Name(), c.left)
		}
		if err != nil {
			return fmt.Errorf("imgfmt: generating content for file %d: %w", f.ID, err)
		}
	}
	if e.headers != nil {
		return c.put(zeroBlock[:tarPadding(f.Size)])
	}
	return nil
}

// chunker is a worker's io.Writer: it packs what the worker and its
// generators write into the worker's chunk and writes each full one at its
// offset.
type chunker struct {
	ctx  context.Context
	dst  io.WriterAt // nil: nothing is kept, or copied
	buf  []byte      // the chunk, allocated on first use
	fill int         // bytes of the chunk in hand
	off  int64       // the image offset of the chunk's first byte
	left int64       // content bytes the current file still has to get
	h    hash.Hash   // nil when no digests are wanted

	// Scratch, reused from file to file: the entry's path and header, and
	// its SHA-256.
	hdr   []byte
	paths fsimage.FilePath
	sum   [sha256.Size]byte
}

// Write takes a file's content from its generator.
func (c *chunker) Write(p []byte) (int, error) {
	if int64(len(p)) > c.left {
		// The image has exactly Size bytes per file; more would run into
		// the next entry.
		return 0, fmt.Errorf("%d bytes past the end of the file", int64(len(p))-c.left)
	}
	c.left -= int64(len(p))
	if c.h != nil {
		c.h.Write(p)
	}
	if err := c.put(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// put packs p into the chunk, writing it each time it fills.
func (c *chunker) put(p []byte) error {
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
				return err
			}
		}
	}
	return nil
}

// flush writes the chunk in hand at its offset. Between chunks is where a
// worker notices that it was stopped.
func (c *chunker) flush() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if c.dst != nil && c.fill > 0 {
		// A short write with no error is io.ErrShortWrite, as in fullWriter.
		n, err := c.dst.WriteAt(c.buf[:c.fill], c.off)
		if n < c.fill && err == nil {
			err = io.ErrShortWrite
		}
		if err != nil {
			return fmt.Errorf("imgfmt: writing image bytes %d to %d: %w", c.off, c.off+int64(c.fill), err)
		}
	}
	c.off += int64(c.fill)
	c.fill = 0
	return nil
}
