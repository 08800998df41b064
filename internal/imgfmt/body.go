package imgfmt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// The body engine is the one place file entries are framed, generated and
// hashed for every archive writer (TarSink, WriteSegment, SquashfsSink). It
// is an ordered, bounded, parallel pipeline:
//
//   - The goroutine calling add/finish (the sink's AddFile/Close caller) cuts
//     the file stream into runs — consecutive files that together fit one
//     chunk, or a single larger file — and queues them in stream order.
//   - Options.Parallelism workers take runs off the queue. A worker writes
//     each file of its run as the image holds it — for tar the header, the
//     body, the zeros up to the next block; for squashfs the body alone —
//     into chunks it owns, the body from the file's content stream
//     (fsimage.ContentStreams) and hashed as it goes, and passes every full
//     chunk to the run's channel. With a fsimage.DigestFold attached it also
//     formats the file's entry of the canonical digest; the engine hands
//     the fold each directory as the sink hands it one (addDir), of the
//     sink's own tree.
//   - The caller stays the only writer, and a copy loop: it drains the runs
//     strictly in submission order — one write per chunk, OnDigest for the
//     files a chunk completes, one fold per run — and hands each chunk back
//     to the worker it came from. It runs at most a window of runs behind
//     submission.
//
// Bytes are a pure function of (seed, file): which worker generates a file,
// and when, changes nothing that is written. j = 1 is the same pipeline with
// one worker, and MetadataOnly the same pipeline with zeros for content.
//
// Memory: a worker owns bodyChunksPerWorker chunks and blocks when all of
// them are with the writer, so bytes in flight are capped at 512 KiB per
// worker whatever the file sizes and counts. A file larger than that streams
// through chunk by chunk while its worker keeps generating. Such a file is
// hashed by the caller as it is written rather than by the worker: one
// file's generator is sequential, so taking SHA-256 off its goroutine is the
// only overlap there is to have (generation on one core, hash and write on
// another). Each of its chunks says where in it the file's content lies, so
// that header and padding stay out of that hash. Files within the budget are
// generated ahead of the writer anyway, and those are hashed where they are
// generated, in parallel.
//
// Workers never block on anything but their own chunks coming back, the job
// queue, and the context; the first error — from the writer, a generator,
// or Options.Context — cancels them and waits for them to exit before the
// caller sees it. There are no workers before the first file.
const (
	// bodyChunkSize is the hand-off unit between a worker and the writer.
	// Runs of small files are cut to fit one chunk, so the hand-off costs
	// one channel operation per run rather than one per file.
	bodyChunkSize = 128 << 10
	// bodyChunksPerWorker chunks belong to each worker.
	bodyChunksPerWorker = 4
	// bodyWorkerBudget is the content one worker can hold ahead of the
	// writer; larger files are hashed by the caller (see above).
	bodyWorkerBudget = bodyChunkSize * bodyChunksPerWorker
	// bodyRunFiles caps the files of one run (empty squashfs files have no
	// bytes to cut a run by), which with the window bounds how far OnDigest
	// lags.
	bodyRunFiles = 256
)

// zeroBlock feeds MetadataOnly entry bodies and every format's padding.
var zeroBlock [32 * 1024]byte

// errSinkClosed poisons the engine after finish, so that a sink used past
// its Close fails instead of waiting for workers that are gone.
var errSinkClosed = errors.New("imgfmt: sink used after Close")

// bodyRun is a run of consecutive files handed to one worker.
type bodyRun struct {
	files []fsimage.File
	// sums[i] is files[i]'s SHA-256, for OnDigest, stored by the worker
	// before it sends a chunk whose done exceeds i (unused for
	// caller-hashed files).
	sums [][sha256.Size]byte
	// entries are the digest entries of the run's worker-hashed files, for
	// the fold, stored by the worker before it sends the closing chunk.
	entries []byte
	// out carries the run's chunks in order. One worker fills it, holding
	// at most bodyChunksPerWorker buffers, plus the buffer-less closing
	// chunk: sends never block.
	out chan bodyChunk
}

// bodyChunk is one hand-off from a worker to the writer.
type bodyChunk struct {
	data []byte        // the next bytes of the image
	free chan<- []byte // where data's buffer goes back to
	done int           // files of the run complete with this chunk
	// data[lo:hi] is content of a file the caller hashes (hi is 0 when
	// there is none).
	lo, hi int
	last   bool  // nothing follows in this run
	err    error // the generator failed (last is set)
}

type bodyEngine struct {
	opts    Options
	ctx     context.Context // the caller's, Options.Context
	streams fsimage.ContentStreams
	// hashing says the files' SHA-256 are wanted, by opts.OnDigest or
	// opts.Fold (neither is set with MetadataOnly).
	hashing bool
	// headers frames every file as a tar entry; nil (squashfs) leaves the
	// bodies bare.
	headers *tarHeaders
	// tree names the files' tar headers. The sink sets it
	// (addDir, or directly for a segment) before the first add; once files
	// flow only its directories' file counters change, which no worker reads.
	tree *namespace.Tree
	// write is the sink, called on the caller's goroutine, in stream order.
	write func([]byte) error

	// runs is a ring: [head, tail) are queued and not yet drained,
	// runs[tail%len] is being filled by add.
	runs       []bodyRun
	head, tail int
	fillBytes  int64
	jobs       chan *bodyRun // cap len(runs): sends never block

	started int                // workers running, at most opts.Parallelism
	cancel  context.CancelFunc // stops them; nil when there are none
	workCtx context.Context
	wg      sync.WaitGroup

	hash    hash.Hash // for caller-hashed files
	err     error     // first failure, or errSinkClosed
	written int64     // content bytes drained so far
}

// newBodyEngine takes opts with their defaults filled in.
func newBodyEngine(opts Options, write func([]byte) error) *bodyEngine {
	if opts.MetadataOnly {
		// Zeros are not content: nobody is told their hashes.
		opts.OnDigest, opts.Fold = nil, nil
	}
	return &bodyEngine{
		opts:    opts,
		ctx:     opts.Context,
		streams: fsimage.NewContentStreams(opts.Seed),
		hashing: opts.OnDigest != nil || opts.Fold != nil,
		write:   write,
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

// framed is the bytes a file of that size takes in the image.
func (e *bodyEngine) framed(size int64) int64 {
	if e.headers == nil {
		return size
	}
	return tarBlock + size + int64(tarPadding(size))
}

// add queues the next file. Earlier files may be written during the call;
// this one is written by a later add or by finish.
func (e *bodyEngine) add(f fsimage.File) error {
	if e.err != nil {
		return e.err
	}
	if err := e.ctx.Err(); err != nil {
		return e.fail(err)
	}
	if e.runs == nil {
		// Twice the workers: one run each in progress and one each queued,
		// so a worker never waits for the caller to cut the next run.
		e.runs = make([]bodyRun, 2*e.opts.Parallelism+1)
		e.jobs = make(chan *bodyRun, len(e.runs))
		e.workCtx, e.cancel = context.WithCancel(e.ctx)
	}
	framed := e.framed(f.Size)
	if e.fillBytes+framed > bodyChunkSize {
		if err := e.submit(); err != nil {
			return err
		}
	}
	r := &e.runs[e.tail%len(e.runs)]
	r.files = append(r.files, f)
	e.fillBytes += framed
	if e.fillBytes >= bodyChunkSize || len(r.files) == bodyRunFiles {
		return e.submit()
	}
	return nil
}

// submit queues the run being filled and, when that leaves no free slot to
// fill next, drains the oldest queued run.
func (e *bodyEngine) submit() error {
	r := &e.runs[e.tail%len(e.runs)]
	if len(r.files) == 0 {
		return nil
	}
	if r.out == nil {
		r.out = make(chan bodyChunk, bodyChunksPerWorker+1)
	}
	if e.opts.OnDigest != nil {
		r.sums = slices.Grow(r.sums[:0], len(r.files))[:len(r.files)]
	}
	e.jobs <- r
	if e.started < e.opts.Parallelism {
		e.started++
		e.wg.Add(1)
		go e.work(e.workCtx)
	}
	e.tail++
	e.fillBytes = 0
	if e.tail-e.head == len(e.runs) {
		return e.drainHead()
	}
	return nil
}

// drainHead writes the oldest queued run and frees its slot.
func (e *bodyEngine) drainHead() error {
	r := &e.runs[e.head%len(e.runs)]
	if err := e.drain(r); err != nil {
		return e.fail(err)
	}
	r.files = r.files[:0]
	e.head++
	return nil
}

// drain writes one run: every chunk as it arrives, OnDigest for the files
// it completes, and the run's fold entries behind the last.
func (e *bodyEngine) drain(r *bodyRun) error {
	// A file over the workers' budget is alone in its run, and hashed here
	// from what its chunks mark; all others arrive hashed.
	callerHashed := e.hashing && r.files[0].Size > bodyWorkerBudget
	reported := 0 // files of r whose last byte is written
	var bytes int64
	for {
		var c bodyChunk
		select {
		case c = <-r.out:
		case <-e.ctx.Done():
			return e.ctx.Err()
		}
		if c.err != nil {
			return c.err
		}
		if c.data != nil {
			if c.hi > 0 {
				if e.hash == nil {
					e.hash = sha256.New()
				}
				e.hash.Write(c.data[c.lo:c.hi])
			}
			if err := e.write(c.data); err != nil {
				return fmt.Errorf("imgfmt: writing files %d to %d: %w", r.files[reported].ID, r.files[len(r.files)-1].ID, err)
			}
			c.free <- c.data[:0]
		}
		for ; reported < c.done; reported++ {
			f := r.files[reported]
			bytes += f.Size
			if e.opts.OnDigest != nil && !callerHashed {
				e.opts.OnDigest(f, hex.EncodeToString(r.sums[reported][:]))
			}
		}
		if c.last {
			break
		}
	}
	if reported != len(r.files) {
		return fmt.Errorf("imgfmt: internal error: body run ended %d files early", len(r.files)-reported)
	}
	e.written += bytes
	if !callerHashed {
		if e.opts.Fold != nil {
			e.opts.Fold.AddFiles(r.files, r.entries)
		}
		return nil
	}
	f := r.files[0]
	sum := hex.EncodeToString(e.hash.Sum(nil))
	e.hash.Reset()
	if e.opts.OnDigest != nil {
		e.opts.OnDigest(f, sum)
	}
	if e.opts.Fold != nil {
		e.opts.Fold.AddFile(f, sum)
	}
	return nil
}

// finish writes everything still queued and stops the workers.
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
			if err := e.drainHead(); err != nil {
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
	if e.cancel != nil {
		e.cancel()
		e.wg.Wait()
		e.cancel = nil
	}
}

// work is one worker: it frames queued runs until the context ends.
func (e *bodyEngine) work(ctx context.Context) {
	defer e.wg.Done()
	c := chunker{ctx: ctx, free: make(chan []byte, bodyChunksPerWorker)}
	for i := 0; i < bodyChunksPerWorker; i++ {
		c.free <- nil // allocated on first use
	}
	if e.hashing {
		c.h = sha256.New()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case r := <-e.jobs:
			if !e.frameRun(&c, r) {
				return
			}
		}
	}
}

// frameRun writes every file of the run through the chunker into r.out. It
// reports whether the worker should go on.
func (e *bodyEngine) frameRun(c *chunker, r *bodyRun) bool {
	c.out, c.done = r.out, 0
	entries := r.entries[:0]
	for i, f := range r.files {
		if err := e.frame(c, f); err != nil {
			if c.ctx.Err() != nil {
				return false // stopped: nobody is reading r.out any more
			}
			c.send(true, err)
			return false
		}
		if c.tap {
			sum := c.h.Sum(c.sum[:0])
			if e.opts.OnDigest != nil {
				copy(r.sums[i][:], sum)
			}
			if e.opts.Fold != nil {
				entries = fsimage.AppendFileEntry(entries, f.Name, f.Size, sum)
			}
		}
		c.done = i + 1
	}
	r.entries = entries
	c.send(true, nil)
	return true
}

// frame is the package's one generate-and-hash loop, and what puts a file
// into an image: header, content from the file's own ID-keyed stream (zeros
// with MetadataOnly), padding.
func (e *bodyEngine) frame(c *chunker, f fsimage.File) error {
	if e.headers != nil {
		c.path = c.paths.Append(e.tree, f)
		var err error
		if c.hdr, err = e.headers.file.append(c.hdr[:0], c.path, f.Size); err != nil {
			return err
		}
		if err := c.put(c.hdr, false); err != nil {
			return err
		}
	}
	c.left = f.Size
	c.tap = c.h != nil && f.Size <= bodyWorkerBudget
	c.mark = c.h != nil && !c.tap
	if c.tap {
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
		return c.put(zeroBlock[:tarPadding(f.Size)], false)
	}
	return nil
}

// chunker is a worker's io.Writer: it packs what the worker and its
// generators write into the worker's chunks and sends each full one to the
// current run's channel.
type chunker struct {
	ctx  context.Context
	free chan []byte      // this worker's buffers, as the writer returns them
	out  chan<- bodyChunk // the current run's
	buf  []byte           // the chunk being filled; nil when none is held
	done int              // files of the current run finished
	left int64            // content bytes the current file still has to get
	h    hash.Hash        // nil when no digests are wanted
	tap  bool             // hash the current file here
	mark bool             // the caller hashes it: mark its content in buf
	// buf[lo:hi] is marked (hi is 0 when nothing is).
	lo, hi int

	// Scratch, reused from file to file: the entry's path (rendered in
	// paths) and header, and its SHA-256.
	path, hdr []byte
	paths     fsimage.FilePath
	sum       [sha256.Size]byte
}

// Write takes a file's content from its generator.
func (c *chunker) Write(p []byte) (int, error) {
	if int64(len(p)) > c.left {
		// The image has exactly Size bytes per file; more would run into
		// the next entry.
		return 0, fmt.Errorf("%d bytes past the end of the file", int64(len(p))-c.left)
	}
	c.left -= int64(len(p))
	if c.tap {
		c.h.Write(p)
	}
	if err := c.put(p, c.mark); err != nil {
		return 0, err
	}
	return len(p), nil
}

// put packs p into the chunks, marking it if asked.
func (c *chunker) put(p []byte, mark bool) error {
	for len(p) > 0 {
		if c.buf == nil {
			select {
			case c.buf = <-c.free:
			case <-c.ctx.Done():
				return c.ctx.Err()
			}
			if c.buf == nil {
				c.buf = make([]byte, 0, bodyChunkSize)
			}
		}
		at := len(c.buf)
		n := copy(c.buf[at:cap(c.buf)], p)
		if mark {
			if c.hi == 0 {
				c.lo = at
			}
			c.hi = at + n
		}
		c.buf = c.buf[:at+n]
		p = p[n:]
		if len(c.buf) == cap(c.buf) {
			c.send(false, nil)
		}
	}
	return nil
}

// send passes the chunk in hand (possibly none, when closing a run) to the
// writer.
func (c *chunker) send(last bool, err error) {
	c.out <- bodyChunk{data: c.buf, free: c.free, done: c.done, lo: c.lo, hi: c.hi, last: last, err: err}
	c.buf, c.lo, c.hi = nil, 0, 0
}
