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
	"impressions/internal/stats"
)

// The body engine is the one place file content is generated and hashed for
// every archive writer (TarSink, WriteSegment, SquashfsSink). It is an
// ordered, bounded, parallel pipeline:
//
//   - The goroutine calling add/finish (the sink's AddFile/Close caller) cuts
//     the file stream into runs — consecutive files that together fit one
//     chunk, or a single larger file — and queues them in stream order.
//   - Options.Parallelism workers take runs off the queue. A worker generates
//     each file of its run from the frozen per-file stream
//     (baseRNG.SplitN(fileID)) into chunks it owns, hashing as it goes, and
//     passes every full chunk to the run's channel.
//   - The caller stays the only writer: it drains the runs strictly in
//     submission order — header (begin), body bytes (write), OnDigest — and
//     hands each chunk back to the worker it came from. It runs at most a
//     window of runs behind submission.
//
// Bytes are a pure function of (seed, file): which worker generates a file,
// and when, changes nothing that is written. j = 1 is the same pipeline with
// one worker.
//
// Memory: a worker owns bodyChunksPerWorker chunks and blocks when all of
// them are with the writer, so content in flight is capped at 512 KiB per
// worker whatever the file sizes and counts. A file larger than that streams
// through chunk by chunk while its worker keeps generating. Such a file is
// hashed by the caller as it is written rather than by the worker: one
// file's generator is sequential, so taking SHA-256 off its goroutine is the
// only overlap there is to have (generation on one core, hash and write on
// another). Files within the budget are generated ahead of the writer
// anyway, and those are hashed where they are generated, in parallel.
//
// Workers never block on anything but their own chunks coming back, the job
// queue, and the context; the first error — from the writer, a generator,
// or Options.Context — cancels them and waits for them to exit before the
// caller sees it. There are no workers before the first file with content.
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
	// bodyRunFiles caps the files of one run (empty files have no bytes to
	// cut a run by), which with the window bounds how far OnDigest lags.
	bodyRunFiles = 256
)

// zeroBlock feeds MetadataOnly entry bodies (and squashfs padding).
var zeroBlock [32 * 1024]byte

// errSinkClosed poisons the engine after finish, so that a sink used past
// its Close fails instead of waiting for workers that are gone.
var errSinkClosed = errors.New("imgfmt: sink used after Close")

// bodyRun is a run of consecutive files handed to one worker.
type bodyRun struct {
	files []fsimage.File
	// sums[i] is files[i]'s SHA-256, stored by the worker before it sends
	// a chunk whose done exceeds i (unused for caller-hashed files).
	sums [][sha256.Size]byte
	// out carries the run's chunks in order. One worker fills it, holding
	// at most bodyChunksPerWorker buffers, plus the buffer-less closing
	// chunk: sends never block.
	out chan bodyChunk
}

// bodyChunk is one hand-off from a worker to the writer.
type bodyChunk struct {
	data []byte        // the next bytes of the run
	free chan<- []byte // where data's buffer goes back to
	done int           // files of the run generated (and hashed) so far
	last bool          // nothing follows in this run
	err  error         // the generator failed (last is set)
}

type bodyEngine struct {
	opts    Options
	ctx     context.Context // the caller's, Options.Context
	baseRNG *stats.RNG
	// begin and write are the sink: begin precedes a file's first body byte
	// (tar header, squashfs start offset); both run on the caller's
	// goroutine, in stream order.
	begin func(fsimage.File) error
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

func newBodyEngine(opts Options, begin func(fsimage.File) error, write func([]byte) error) *bodyEngine {
	return &bodyEngine{
		opts:    opts,
		ctx:     opts.ctx(),
		baseRNG: stats.NewRNG(opts.Seed).Fork(fsimage.MaterializeStreamLabel),
		begin:   begin,
		write:   write,
	}
}

// add queues the next file's body. Earlier files may be written during the
// call; this one is written by a later add or by finish.
func (e *bodyEngine) add(f fsimage.File) error {
	if e.err != nil {
		return e.err
	}
	if err := e.ctx.Err(); err != nil {
		return e.fail(err)
	}
	if e.opts.MetadataOnly {
		return e.addZeros(f)
	}
	if e.runs == nil {
		// Twice the workers: one run each in progress and one each queued,
		// so a worker never waits for the caller to cut the next run.
		e.runs = make([]bodyRun, 2*e.opts.Parallelism+1)
		e.jobs = make(chan *bodyRun, len(e.runs))
		e.workCtx, e.cancel = context.WithCancel(e.ctx)
	}
	if e.fillBytes+f.Size > bodyChunkSize {
		if err := e.submit(); err != nil {
			return err
		}
	}
	r := &e.runs[e.tail%len(e.runs)]
	r.files = append(r.files, f)
	e.fillBytes += f.Size
	if e.fillBytes >= bodyChunkSize || len(r.files) == bodyRunFiles {
		return e.submit()
	}
	return nil
}

// addZeros is the MetadataOnly body: f.Size zero bytes, written inline.
func (e *bodyEngine) addZeros(f fsimage.File) error {
	if err := e.begin(f); err != nil {
		return e.fail(err)
	}
	for remaining := f.Size; remaining > 0; {
		n := min(remaining, int64(len(zeroBlock)))
		if err := e.write(zeroBlock[:n]); err != nil {
			return e.fail(fmt.Errorf("imgfmt: writing body of file %d: %w", f.ID, err))
		}
		remaining -= n
	}
	e.written += f.Size
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

// drain writes one run: for each file begin, exactly Size body bytes taken
// from the run's chunks as they arrive, then OnDigest.
func (e *bodyEngine) drain(r *bodyRun) error {
	var (
		c    bodyChunk // c.data is what is left of the chunk in hand
		held []byte    // its buffer, returned to the worker once drained
	)
	// next returns the drained chunk's buffer and waits for the one after.
	next := func() error {
		if held != nil {
			c.free <- held[:0]
		}
		if c.last {
			return fmt.Errorf("imgfmt: internal error: body run ended %d files early", len(r.files)-c.done)
		}
		select {
		case c = <-r.out:
		case <-e.ctx.Done():
			return e.ctx.Err()
		}
		held = c.data
		return c.err
	}
	digests := e.opts.OnDigest != nil
	for i, f := range r.files {
		if err := e.begin(f); err != nil {
			return err
		}
		callerHashed := digests && f.Size > bodyWorkerBudget
		if callerHashed {
			if e.hash == nil {
				e.hash = sha256.New()
			}
			e.hash.Reset()
		}
		for remaining := f.Size; remaining > 0; {
			if len(c.data) == 0 {
				if err := next(); err != nil {
					return err
				}
				continue
			}
			n := int(min(remaining, int64(len(c.data))))
			if callerHashed {
				e.hash.Write(c.data[:n])
			}
			if err := e.write(c.data[:n]); err != nil {
				return fmt.Errorf("imgfmt: writing body of file %d: %w", f.ID, err)
			}
			c.data = c.data[n:]
			remaining -= int64(n)
		}
		e.written += f.Size
		if !digests {
			continue
		}
		var sum []byte
		if callerHashed {
			sum = e.hash.Sum(nil)
		} else {
			// The sum may trail the file's last byte by one chunk (a file
			// that exactly fills its chunk, or an empty one behind it).
			for c.done <= i {
				if err := next(); err != nil {
					return err
				}
			}
			sum = r.sums[i][:]
		}
		e.opts.OnDigest(f, hex.EncodeToString(sum))
	}
	// Take the closing chunk too, so the slot's channel is empty for reuse.
	for !c.last {
		if err := next(); err != nil {
			return err
		}
	}
	if held != nil {
		c.free <- held[:0]
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

// work is one worker: it generates queued runs until the context ends.
func (e *bodyEngine) work(ctx context.Context) {
	defer e.wg.Done()
	c := chunker{ctx: ctx, free: make(chan []byte, bodyChunksPerWorker)}
	for i := 0; i < bodyChunksPerWorker; i++ {
		c.free <- nil // allocated on first use
	}
	if e.opts.OnDigest != nil {
		c.h = sha256.New()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case r := <-e.jobs:
			if !e.generate(&c, r) {
				return
			}
		}
	}
}

// generate is the package's one generate-and-hash loop: every file of the
// run, from its own ID-keyed stream, through the chunker into r.out. It
// reports whether the worker should go on.
func (e *bodyEngine) generate(c *chunker, r *bodyRun) bool {
	c.out, c.done = r.out, 0
	for i, f := range r.files {
		c.left = f.Size
		c.tap = c.h != nil && f.Size <= bodyWorkerBudget
		if c.tap {
			c.h.Reset()
		}
		// Each file owns a stream keyed by its ID: bytes depend only on the
		// seed and the file, never on which worker, process or shard writes
		// them.
		gen := e.opts.Registry.ForExtension(f.Ext)
		err := gen.Generate(c, f.Size, e.baseRNG.SplitN(uint64(f.ID)))
		if err == nil && c.left != 0 {
			err = fmt.Errorf("generator %s stopped %d bytes short", gen.Name(), c.left)
		}
		if err != nil {
			if c.ctx.Err() != nil {
				return false // stopped: nobody is reading r.out any more
			}
			c.send(true, fmt.Errorf("imgfmt: generating content for file %d: %w", f.ID, err))
			return false
		}
		if c.tap {
			c.h.Sum(r.sums[i][:0])
		}
		c.done = i + 1
	}
	c.send(true, nil)
	return true
}

// chunker is a worker's io.Writer: it packs what the generators write into
// the worker's chunks and sends each full one to the current run's channel.
type chunker struct {
	ctx  context.Context
	free chan []byte      // this worker's buffers, as the writer returns them
	out  chan<- bodyChunk // the current run's
	buf  []byte           // the chunk being filled; nil when none is held
	done int              // files of the current run finished
	left int64            // bytes the current file still has to get
	h    hash.Hash        // nil without OnDigest
	tap  bool             // hash the current file here
}

func (c *chunker) Write(p []byte) (int, error) {
	if int64(len(p)) > c.left {
		// The writer takes exactly Size bytes per file; more would run into
		// the next entry.
		return 0, fmt.Errorf("%d bytes past the end of the file", int64(len(p))-c.left)
	}
	c.left -= int64(len(p))
	if c.tap {
		c.h.Write(p)
	}
	for rest := p; len(rest) > 0; {
		if c.buf == nil {
			select {
			case c.buf = <-c.free:
			case <-c.ctx.Done():
				return len(p) - len(rest), c.ctx.Err()
			}
			if c.buf == nil {
				c.buf = make([]byte, 0, bodyChunkSize)
			}
		}
		n := copy(c.buf[len(c.buf):cap(c.buf)], rest)
		c.buf = c.buf[:len(c.buf)+n]
		rest = rest[n:]
		if len(c.buf) == cap(c.buf) {
			c.send(false, nil)
		}
	}
	return len(p), nil
}

// send passes the chunk in hand (possibly none, when closing a run) to the
// writer.
func (c *chunker) send(last bool, err error) {
	c.out <- bodyChunk{data: c.buf, free: c.free, done: c.done, last: last, err: err}
	c.buf = nil
}
