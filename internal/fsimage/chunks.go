package fsimage

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"

	"impressions/internal/jsonscan"
)

// The chunked metadata stream is how large images travel inside plan files
// without ever being materialized as one JSON blob in memory: the image's
// directory records stream first (ID order), then its file records (ID
// order), sliced into hash-guarded chunks of at most a few thousand records
// each. Producers push records into a ChunkEncoder (any RecordSource will
// do), consumers replay verified chunks through a ChunkDecoder into any
// RecordSink, and both sides hold O(chunk) metadata buffers instead of
// O(image). The per-chunk hash covers the records themselves, not their
// JSON rendering, and the chain over all chunk hashes (ChunkHashChain)
// stands in for a whole-image hash. The rendering has one form, AppendJSON's,
// and ChunkReader takes no other: the hash guards the values, the reader
// the bytes they travel in.
//
// An encoder cuts chunks; a ChunkSealer seals them. One sealer serves every
// encoder of a build. An encoder hands its records over a piece at a time
// (pieceRecords of them, or fewer where a chunk ends) as they arrive, and
// the sealer formats each piece's hash lines and, for an encoder that
// writes a document, its JSON, on parallelism−1 goroutines and on the
// goroutine feeding the encoders whenever its ring of pieces is full. Only
// the tail runs in the order the pieces were handed over: feeding the
// chunk's SHA-256, rendering its opening and its hash member, emitting, and
// folding each sealed chunk into its encoder's chain. Both the hashed text
// and the JSON of a chunk are concatenations of its records', so the pieces
// add up to exactly the bytes of the whole chunk. Every parallelism, 1
// included, runs this one ring; NewChunkEncoder is a sealer at 1 whose
// emit reads each rendered chunk back.

// DefaultChunkSize is the default number of metadata records per chunk. At
// ~100 bytes per serialized record a chunk costs on the order of 1 MB to
// buffer, independent of image size.
const DefaultChunkSize = 8192

// chunkHashVersion versions the canonical record-hash formula below.
const chunkHashVersion = "impressions-plan-chunk-v1"

// DirRecord is the serialized form of one directory in the metadata stream
// (and in whole-image JSON encodings).
type DirRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Special bool    `json:"special,omitempty"`
	Bias    float64 `json:"bias,omitempty"`
}

// Chunk is one hash-guarded slice of an image's metadata stream. A chunk
// holds either directory records or file records, never both; across the
// stream, every directory chunk precedes every file chunk and records appear
// in ascending ID order.
type Chunk struct {
	// Index is the chunk's position in the stream, starting at 0.
	Index int         `json:"index"`
	Dirs  []DirRecord `json:"dirs,omitempty"`
	Files []File      `json:"files,omitempty"`
	// SHA256 is RecordsHash() of this chunk, guarding it in transit.
	SHA256 string `json:"sha256"`
}

// hashFlushBytes is how many rendered record lines RecordsHash gathers
// before one hash.Write.
const hashFlushBytes = 32 << 10

// RecordsHash computes the canonical SHA-256 (hex) over the chunk's index
// and records. It hashes field values, not JSON bytes, so the hash is stable
// across whitespace, field-order, and encoder differences. The hashed text
// is one line per record,
//
//	"D %d %d %q %t %g\n" (ID, Parent, Name, Special, Bias)
//	"F %d %q %q %d %d %d\n" (ID, Name, Ext, Size, DirID, Depth)
//
// after a "version\nindex:%d\n" preamble, rendered with strconv's appenders
// (which is what fmt's verbs call; %q is strconv.AppendQuote behind
// appendQuoted's shortcut) rather than through fmt: every plan record is
// hashed at least twice, sealing and verifying, and formatting was seven
// times the cost of the SHA-256 it fed. The text is a concatenation, so a
// sealer hashes a chunk a piece at a time with the same appenders.
func (c *Chunk) RecordsHash() string {
	h := sha256.New()
	// One buffer for all the lines: flushed when full, sized for a small
	// chunk when the chunk is small, with room for one more line.
	buf := make([]byte, 0, min(hashFlushBytes, 128*(len(c.Dirs)+len(c.Files)))+128*hashBatch)
	buf = appendHashPreamble(buf, c.Index)
	for lo := 0; lo < len(c.Dirs); lo += hashBatch {
		if buf = appendDirLines(buf, c.Dirs[lo:min(lo+hashBatch, len(c.Dirs))]); len(buf) >= hashFlushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for lo := 0; lo < len(c.Files); lo += hashBatch {
		if buf = appendFileLines(buf, c.Files[lo:min(lo+hashBatch, len(c.Files))]); len(buf) >= hashFlushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hexSum(h)
}

// hashBatch is how many records RecordsHash renders between checks of its
// buffer against hashFlushBytes, and AppendJSON between reuses of its hash
// lines.
const hashBatch = 64

// hexSum returns h's sum in hex.
func hexSum(h hash.Hash) string {
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], h.Sum(sum[:0]))
	return string(text[:])
}

// appendHashPreamble appends the hashed text's first line and the index's.
func appendHashPreamble(buf []byte, index int) []byte {
	buf = append(buf, chunkHashVersion...)
	buf = append(buf, "\nindex:"...)
	buf = strconv.AppendInt(buf, int64(index), 10)
	return append(buf, '\n')
}

// appendDirLines appends the directory records' hashed lines.
func appendDirLines(buf []byte, dirs []DirRecord) []byte {
	for i := range dirs {
		d := &dirs[i]
		buf = append(buf, 'D', ' ')
		buf = strconv.AppendInt(buf, int64(d.ID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(d.Parent), 10)
		buf = append(buf, ' ')
		buf = jsonscan.AppendQuoted(buf, d.Name, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, d.Special)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, d.Bias, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	return buf
}

// appendFileLines appends the file records' hashed lines.
func appendFileLines(buf []byte, files []File) []byte {
	for i := range files {
		f := &files[i]
		buf = append(buf, 'F', ' ')
		buf = strconv.AppendInt(buf, int64(f.ID), 10)
		buf = append(buf, ' ')
		buf = jsonscan.AppendQuoted(buf, f.Name, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = jsonscan.AppendQuoted(buf, f.Ext, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, f.Size, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(f.DirID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(f.Depth), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// AppendJSON appends the chunk's wire form, byte for byte what
// json.Marshal(c) returns, to dst. Integers, booleans and the strings that
// JSON copies through verbatim (jsonscan.AppendString) are appended
// directly; any other string and a non-zero Bias are rendered by
// encoding/json itself, so its escaping and float rules are never restated
// here. Like json.Marshal it fails on an infinite or NaN Bias. ChunkReader
// reads it back. A record array is its records' objects joined by commas,
// so a sealer renders a chunk a piece at a time with the same appenders.
func (c *Chunk) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(c.Index), 10)
	if len(c.Dirs) > 0 {
		var err error
		if dst, err = appendDirsJSON(append(dst, `,"dirs":[`...), c.Dirs, true); err != nil {
			return dst, err
		}
		dst = append(dst, ']')
	}
	if len(c.Files) > 0 {
		dst = append(dst, `,"files":[`...)
		var lines []byte // the hash lines the renderer formats the integers into
		for lo := 0; lo < len(c.Files); lo += hashBatch {
			lines, dst = appendFileLinesJSON(lines[:0], dst, c.Files[lo:min(lo+hashBatch, len(c.Files))], lo == 0)
		}
		dst = append(dst, ']')
	}
	return appendChunkEnd(dst, c.SHA256), nil
}

// appendChunkEnd appends a chunk's last member, its hash, and its closing
// brace.
func appendChunkEnd(dst []byte, hash string) []byte {
	dst = append(dst, `,"sha256":`...)
	dst = jsonscan.AppendString(dst, hash)
	return append(dst, '}')
}

// appendDirsJSON appends the directory records' objects joined by commas,
// after one more unless first: a record array, or a run of one.
func appendDirsJSON(dst []byte, dirs []DirRecord, first bool) ([]byte, error) {
	for i := range dirs {
		d := &dirs[i]
		if i > 0 || !first {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(d.ID), 10)
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendInt(dst, int64(d.Parent), 10)
		dst = append(dst, `,"name":`...)
		dst = jsonscan.AppendString(dst, d.Name)
		if d.Special {
			dst = append(dst, `,"special":true`...)
		}
		if d.Bias != 0 {
			bias, err := json.Marshal(d.Bias)
			if err != nil {
				return dst, err
			}
			dst = append(append(dst, `,"bias":`...), bias...)
		}
		dst = append(dst, '}')
	}
	return dst, nil
}

// ChunkReader reads chunks off a jsonscan.Scanner in the one wire form
// AppendJSON writes, byte for byte, into one Chunk whose record slices it
// reuses from chunk to chunk: they grow only as records arrive, to the
// largest chunk read. Members come in the writer's order under its names,
// a record array only when it has records, "special" only when true and
// "bias" only when not zero; any other input is refused. It checks nothing
// more: the hash and the order are ChunkDecoder.AddChunk's.
type ChunkReader struct {
	s     *jsonscan.Scanner
	c     Chunk
	dirs  []DirRecord
	files []File
}

// NewChunkReader returns a reader of the chunks s scans.
func NewChunkReader(s *jsonscan.Scanner) *ChunkReader { return &ChunkReader{s: s} }

// Read reads the next chunk. The chunk and its records are the reader's,
// overwritten by the next Read.
func (r *ChunkReader) Read() (*Chunk, error) {
	s, c := r.s, &r.c
	*c = Chunk{}
	s.Lit(`{"index":`)
	s.Int(&c.Index)
	if s.Opt(`,"dirs":[`) {
		r.dirs = r.dirs[:0]
		for more := true; more; more = s.Next() {
			r.dirs = jsonscan.Append(r.dirs)
			readDirRecord(s, &r.dirs[len(r.dirs)-1])
		}
		c.Dirs = r.dirs
	}
	if s.Opt(`,"files":[`) {
		r.files = r.files[:0]
		for more := true; more; more = s.Next() {
			r.files = jsonscan.Append(r.files)
			readFile(s, &r.files[len(r.files)-1])
		}
		c.Files = r.files
	}
	s.Lit(`,"sha256":`)
	s.String(&c.SHA256)
	s.Lit("}")
	if err := s.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func readDirRecord(s *jsonscan.Scanner, d *DirRecord) {
	s.Lit(`{"id":`)
	s.Int(&d.ID)
	s.Lit(`,"parent":`)
	s.Int(&d.Parent)
	s.Lit(`,"name":`)
	s.String(&d.Name)
	d.Special = s.Opt(`,"special":true`)
	if s.Opt(`,"bias":`) {
		if s.Float64(&d.Bias); d.Bias == 0 {
			s.Fail("a zero bias, which the writer leaves out")
		}
	}
	s.Lit("}")
}

func readFile(s *jsonscan.Scanner, f *File) {
	s.Lit(`{"ID":`)
	s.Int(&f.ID)
	s.Lit(`,"Name":`)
	s.String(&f.Name)
	s.Lit(`,"Ext":`)
	s.String(&f.Ext)
	s.Lit(`,"Size":`)
	s.Int64(&f.Size)
	s.Lit(`,"DirID":`)
	s.Int(&f.DirID)
	s.Lit(`,"Depth":`)
	s.Int(&f.Depth)
	s.Lit("}")
}

// pieceRecords is how many records an encoder hands its sealer at a time: a
// chunk is hashed and rendered a piece at a time as its records arrive, not
// once it is full, so a sealing goroutine has work from the first records
// of a build on.
const pieceRecords = 1024

// ringPerWorker is how many pieces the sealer holds per unit of parallelism,
// queued, in formatting or waiting for their turn in the ordered tail.
const ringPerWorker = 4

// ChunkPiece is one run of a chunk's rendering, as a rendering encoder hands
// them to its emit, in stream order. A chunk's AppendJSON is the
// concatenation of its pieces' JSON, from the piece with First set to the
// piece with SHA256 set.
type ChunkPiece struct {
	Index  int    // the chunk's position in the stream
	First  bool   // JSON opens the chunk
	JSON   []byte // reused once emit returns
	SHA256 string // the chunk's RecordsHash, on its last piece only
}

// ChunkSealer seals the chunks its encoders cut (see the stream comment
// above), a piece at a time. Each piece — an encoder's next pieceRecords
// records, or fewer where a chunk ends — has its hash lines and JSON
// formatted by whichever goroutine takes it, then goes through the ordered
// tail in the order the pieces were handed over: the chunk's SHA-256 is
// fed, its opening and its hash member are rendered around its records,
// its pieces are emitted and, at its last piece, it is folded into its
// encoder's chain. A ring of pieces bounds the whole build, ringPerWorker
// per unit of parallelism above 1 and one piece at 1: parallelism−1
// goroutines (none at 1) format the queued pieces, the goroutine handing
// them over formats the oldest queued one itself whenever the ring is full
// and, in an encoder's Close, until the encoder's pieces have all left it,
// and whichever goroutine finishes the oldest piece runs the tail. Encoders
// and the sealer belong to one goroutine, the emits run on any; the first
// failure — a chunk that does not render, an emit that fails — is returned
// by every later call of any of its encoders.
type ChunkSealer struct {
	// Under mu: pieces are numbered as they are handed over; those below
	// handed are in the ring, those below taken are formatting or
	// formatted, those below tailed have left it.
	mu                    sync.Mutex
	queued, freed         sync.Cond // a piece queued; the tail advanced or the sealer failed
	ring                  []piece
	handed, taken, tailed uint64
	tailing               bool // a goroutine is running the tail
	wg                    sync.WaitGroup
	err                   error
}

// piece is one run of an encoder's records between its hand-over and its
// tail. It owns its record buffers, swapped for the encoder's at the
// hand-over.
type piece struct {
	enc         *ChunkEncoder
	index       int  // its chunk's
	first, last bool // it opens, closes its chunk
	dirs        []DirRecord
	files       []File
	lines       []byte // the records' hash lines
	json        []byte // their objects, when enc renders
	err         error  // a rendering failure
	done        bool   // formatted (under mu)
}

// NewChunkSealer returns a sealer for one build at the given parallelism
// (<= 0 selects runtime.NumCPU()). It starts parallelism−1 goroutines,
// which Close stops.
func NewChunkSealer(parallelism int) *ChunkSealer {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	ring := ringPerWorker * parallelism
	if parallelism == 1 {
		ring = 1 // one piece queued while the next is filled
	}
	s := &ChunkSealer{ring: make([]piece, ring)}
	s.queued.L, s.freed.L = &s.mu, &s.mu
	s.wg.Add(parallelism - 1)
	for range parallelism - 1 {
		go s.work()
	}
	return s
}

// Encoder returns an encoder cutting chunks of at most chunkSize records
// (<= 0 selects DefaultChunkSize) for this sealer to seal, rendered, and
// handing each chunk's rendering to emit a piece at a time (see
// ChunkPiece). Its record buffer holds one piece, allocated the first time
// it is needed and traded for the ring's at every hand-over. The piece is
// reused once emit returns — emit must not retain it.
func (s *ChunkSealer) Encoder(chunkSize int, emit func(*ChunkPiece) error) *ChunkEncoder {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkEncoder{sealer: s, chunkSize: chunkSize, size: min(chunkSize, pieceRecords), emit: emit, hash: sha256.New(), chain: NewChunkHashChain()}
}

// Close stops the sealer's goroutines, abandoning the pieces in flight;
// every later call of its encoders fails. Further calls do nothing.
func (s *ChunkSealer) Close() {
	s.mu.Lock()
	if s.err == nil {
		s.err = errSealerClosed
	}
	s.queued.Broadcast()
	s.freed.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

var errSealerClosed = errors.New("fsimage: chunk sealer closed")

// renderBytes and lineBytes are about what AppendJSON and the hash take for
// one generated record.
const renderBytes, lineBytes = 112, 56

// work formats queued pieces until the sealer fails or closes.
func (s *ChunkSealer) work() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.err == nil && s.taken == s.handed {
			s.queued.Wait()
		}
		if s.err != nil {
			return
		}
		s.formatOldest()
	}
}

// formatOldest formats the oldest queued piece and runs the tail as far as
// the formatted pieces reach. It is called, and returns, with mu held.
func (s *ChunkSealer) formatOldest() {
	p := &s.ring[s.taken%uint64(len(s.ring))]
	s.taken++
	s.mu.Unlock()
	p.format()
	s.mu.Lock()
	p.done = true
	if s.tailing {
		return // the goroutine running the tail reaches p
	}
	s.tailing = true
	for s.tailed < s.taken {
		q := &s.ring[s.tailed%uint64(len(s.ring))]
		if !q.done {
			break
		}
		if s.err == nil {
			s.mu.Unlock()
			err := q.tail()
			s.mu.Lock()
			if err != nil && s.err == nil {
				s.err = err
			}
		}
		q.done, q.enc = false, nil
		s.tailed++
		s.freed.Broadcast()
	}
	s.tailing = false
}

// format renders the piece's hash lines and, when its encoder renders, its
// records' JSON.
func (p *piece) format() {
	n := len(p.dirs) + len(p.files)
	if cap(p.lines) < lineBytes*n {
		p.lines = make([]byte, 0, lineBytes*pieceRecords)
	}
	p.lines = appendDirLines(p.lines[:0], p.dirs)
	if cap(p.json) < renderBytes*n {
		p.json = make([]byte, 0, renderBytes*pieceRecords)
	}
	if p.json, p.err = appendDirsJSON(p.json[:0], p.dirs, p.first); p.err != nil {
		p.err = fmt.Errorf("fsimage: encoding chunk %d: %w", p.index, p.err)
		return
	}
	p.lines, p.json = appendFileLinesJSON(p.lines, p.json, p.files, p.first)
}

// appendFileLinesJSON appends the file records' hashed lines, as
// appendFileLines does, onto lines and their objects joined by commas, after
// one more unless first (a record array, or a run of one), onto js. It
// formats each integer once, into the hash line, and copies its digits from
// there into the JSON.
func appendFileLinesJSON(lines, js []byte, files []File, first bool) ([]byte, []byte) {
	for i := range files {
		f := &files[i]
		lines = append(lines, 'F', ' ')
		at := len(lines)
		lines = strconv.AppendInt(lines, int64(f.ID), 10)
		id := lines[at:]
		lines = append(lines, ' ')
		lines = jsonscan.AppendQuoted(lines, f.Name, strconv.AppendQuote)
		lines = append(lines, ' ')
		lines = jsonscan.AppendQuoted(lines, f.Ext, strconv.AppendQuote)
		lines = append(lines, ' ')
		at = len(lines)
		lines = strconv.AppendInt(lines, f.Size, 10)
		size := lines[at:]
		lines = append(lines, ' ')
		at = len(lines)
		lines = strconv.AppendInt(lines, int64(f.DirID), 10)
		dir := lines[at:]
		lines = append(lines, ' ')
		at = len(lines)
		lines = strconv.AppendInt(lines, int64(f.Depth), 10)
		depth := lines[at:]
		lines = append(lines, '\n')

		if i > 0 || !first {
			js = append(js, ',')
		}
		js = append(js, `{"ID":`...)
		js = append(js, id...)
		js = append(js, `,"Name":`...)
		js = jsonscan.AppendString(js, f.Name)
		js = append(js, `,"Ext":`...)
		js = jsonscan.AppendString(js, f.Ext)
		js = append(js, `,"Size":`...)
		js = append(js, size...)
		js = append(js, `,"DirID":`...)
		js = append(js, dir...)
		js = append(js, `,"Depth":`...)
		js = append(js, depth...)
		js = append(js, '}')
	}
	return lines, js
}

// tail is the ordered part of sealing a piece, run for every piece in the
// order they were handed over: it feeds the piece's lines to its chunk's
// hash and emits the piece, opening the chunk before its first and sealing
// it after its last.
func (p *piece) tail() error {
	if p.err != nil {
		return p.err
	}
	e := p.enc
	if p.first {
		e.hash.Reset()
		e.head = appendHashPreamble(e.head[:0], p.index)
		e.hash.Write(e.head)
		e.head = append(e.head[:0], `{"index":`...)
		e.head = strconv.AppendInt(e.head, int64(p.index), 10)
		if len(p.dirs) > 0 {
			e.head = append(e.head, `,"dirs":[`...)
		} else {
			e.head = append(e.head, `,"files":[`...)
		}
		if err := e.emit(&ChunkPiece{Index: p.index, First: true, JSON: e.head}); err != nil {
			return err
		}
	}
	e.hash.Write(p.lines)
	if len(p.json) > 0 {
		if err := e.emit(&ChunkPiece{Index: p.index, JSON: p.json}); err != nil {
			return err
		}
	}
	if !p.last {
		return nil
	}
	sum := hexSum(e.hash)
	e.chain.Add(sum)
	e.sealed++
	e.head = appendChunkEnd(append(e.head[:0], ']'), sum)
	return e.emit(&ChunkPiece{Index: p.index, JSON: e.head, SHA256: sum})
}

// handOver hands the records e buffered since its last hand-over to the
// sealer as the next piece of its open chunk; last closes the chunk.
func (s *ChunkSealer) handOver(e *ChunkEncoder, last bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.handed-s.tailed == uint64(len(s.ring)) {
		if s.taken < s.handed {
			s.formatOldest()
		} else {
			s.freed.Wait()
		}
	}
	if s.err != nil {
		return s.err
	}
	p := &s.ring[s.handed%uint64(len(s.ring))]
	p.enc, p.index, p.first, p.last = e, e.cut, e.inChunk == 0, last
	e.advance(len(e.dirBuf)+len(e.fileBuf), last)
	// The records change places with the ring's emptied buffer of their
	// kind; the buffer of the other kind stays with the ring.
	if len(e.dirBuf) > 0 {
		p.dirs, e.dirBuf, p.files = e.dirBuf, p.dirs[:0], p.files[:0]
	} else {
		p.files, e.fileBuf, p.dirs = e.fileBuf, p.files[:0], p.dirs[:0]
	}
	s.handed++
	e.handed = s.handed
	s.queued.Signal()
	return nil
}

// drain runs and waits for the tail until every piece e has handed over has
// left it, formatting queued pieces while it waits.
func (s *ChunkSealer) drain(e *ChunkEncoder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.tailed < e.handed {
		if s.taken < s.handed {
			s.formatOldest()
		} else {
			s.freed.Wait()
		}
	}
	return s.err
}

// ChunkEncoder is the RecordSink that slices a metadata stream into sealed,
// hash-guarded chunks: directory records fill directory chunks, the first
// file record seals any partial directory chunk, and Close seals the
// trailing partial chunk. It buffers only the records of the piece it is
// filling, the pieces in flight being its sealer's, so a generation pass
// can stream an arbitrarily large image through it in O(piece) memory.
type ChunkEncoder struct {
	sealer    *ChunkSealer
	chunkSize int
	size      int // records a buffer is allocated for
	emit      func(*ChunkPiece) error

	// The goroutine feeding the encoder's.
	dirBuf  []DirRecord
	fileBuf []File
	files   bool   // the file half of the stream has begun
	cut     int    // chunks opened: the open chunk's index
	inChunk int    // records of the open chunk handed over
	handed  uint64 // the sealer's count after its last hand-over

	// The ordered tail's.
	hash   hash.Hash // the open chunk's
	head   []byte
	sealed int // chunks emitted, all folded into chain
	chain  *ChunkHashChain
}

// advance counts n records handed over into the open chunk, closing it
// when last.
func (e *ChunkEncoder) advance(n int, last bool) {
	e.inChunk += n
	if last {
		e.cut++
		e.inChunk = 0
	}
}

// NewChunkEncoder returns an encoder emitting chunks of at most chunkSize
// records (<= 0 selects DefaultChunkSize), records and all: a rendering
// encoder of a sealer at parallelism 1 of its own, whose emit gathers each
// chunk's pieces and reads the chunk back with a ChunkReader before handing
// it on. The emitted *Chunk (and its record slices) is reused between emit
// calls — emit must not retain it. The chunk is what the wire carries, so
// the wire format's two losses show: a chunk with a string that is not
// valid UTF-8 does not read back (see jsonscan) and fails, and a Bias of -0
// comes back as +0, which fails the chunk's hash; no generated record has
// either. Like AppendJSON it fails on an infinite or NaN Bias.
func NewChunkEncoder(chunkSize int, emit func(*Chunk) error) *ChunkEncoder {
	var (
		raw []byte
		rd  bytes.Reader
		br  = bufio.NewReader(&rd)
		cr  ChunkReader
	)
	return NewChunkSealer(1).Encoder(chunkSize, func(p *ChunkPiece) error {
		if p.First {
			raw = raw[:0]
		}
		if raw = append(raw, p.JSON...); p.SHA256 == "" {
			return nil
		}
		rd.Reset(raw)
		br.Reset(&rd)
		cr.s = jsonscan.New(br)
		c, err := cr.Read()
		if err != nil {
			return fmt.Errorf("fsimage: reading chunk %d back: %w", p.Index, err)
		}
		return emit(c)
	})
}

// AddDir buffers the next directory record, handing a piece over when one
// is full.
func (e *ChunkEncoder) AddDir(d DirRecord) error {
	if e.files {
		return fmt.Errorf("fsimage: directory record %d after the file stream began", d.ID)
	}
	if e.dirBuf == nil {
		e.dirBuf = make([]DirRecord, 0, e.size)
	}
	e.dirBuf = append(e.dirBuf, d)
	return e.added(len(e.dirBuf))
}

// AddFile buffers the next file record, sealing the partial directory chunk
// on the first file and handing a piece over when one is full.
func (e *ChunkEncoder) AddFile(f File) error {
	if !e.files {
		if err := e.Flush(); err != nil {
			return err
		}
		e.files, e.dirBuf = true, nil
	}
	if e.fileBuf == nil {
		e.fileBuf = make([]File, 0, e.size)
	}
	e.fileBuf = append(e.fileBuf, f)
	return e.added(len(e.fileBuf))
}

// added hands the buffered records over once they fill a piece or the
// chunk, buffered holding that many.
func (e *ChunkEncoder) added(buffered int) error {
	if full := e.inChunk+buffered == e.chunkSize; full || buffered == pieceRecords {
		return e.sealer.handOver(e, full)
	}
	return nil
}

// Flush closes the open chunk, handing its buffered records over as its
// last piece (no-op if no chunk is open), and does not wait for it to be
// emitted: encoders of one sealer flushed before any of them is closed
// have their trailing pieces sealed side by side.
func (e *ChunkEncoder) Flush() error {
	if e.inChunk == 0 && len(e.dirBuf)+len(e.fileBuf) == 0 {
		return nil
	}
	return e.sealer.handOver(e, true)
}

// Close seals the trailing partial chunk and waits until every chunk of the
// encoder is emitted. It must be called after the last record; the encoder
// may be inspected (Chunks, ChainHash) afterwards.
func (e *ChunkEncoder) Close() error {
	if err := e.Flush(); err != nil {
		return err
	}
	return e.sealer.drain(e)
}

// Chunks returns how many chunks have been sealed and emitted so far.
func (e *ChunkEncoder) Chunks() int { return e.sealed }

// ChainHash returns the running chain hash over the emitted chunks; after
// Close it is the whole-image integrity value a chunked stream's header or
// trailer records.
func (e *ChunkEncoder) ChainHash() string { return e.chain.Sum() }

// Resume positions a fresh encoder for the file half of a stream whose
// directory chunks were sealed elsewhere: dirHashes are their RecordsHash
// values in stream order. Its first chunk is numbered len(dirHashes), its
// chain starts from those hashes, and it rejects directory records. The K
// fragments of a partitioned plan share one directory section this way
// instead of each hashing and rendering it again.
func (e *ChunkEncoder) Resume(dirHashes []string) {
	for _, h := range dirHashes {
		e.chain.Add(h)
	}
	e.cut, e.sealed = len(dirHashes), len(dirHashes)
	e.files = true
}

// ChunkHashChain incrementally folds chunk hashes into the whole-image
// integrity hash, so neither side needs to hold the per-chunk hash list.
type ChunkHashChain struct {
	h    hash.Hash
	line []byte
}

// NewChunkHashChain starts an empty chain.
func NewChunkHashChain() *ChunkHashChain {
	h := sha256.New()
	h.Write([]byte("impressions-plan-chunk-chain-v1\n"))
	return &ChunkHashChain{h: h}
}

// Add folds one chunk hash (hex) into the chain: the line "%s\n".
func (c *ChunkHashChain) Add(chunkHash string) {
	c.line = append(append(c.line[:0], chunkHash...), '\n')
	c.h.Write(c.line)
}

// Sum returns the chain hash (hex) over everything added so far.
func (c *ChunkHashChain) Sum() string {
	return hex.EncodeToString(c.h.Sum(nil))
}

// ChunkDecoder verifies a chunked metadata stream — chunk order, per-chunk
// integrity hashes, the dirs-before-files invariant — and replays the
// verified records into any RecordSink, maintaining the running hash chain.
// It is the guard every chunk consumer shares: the fragment decoder, and any
// streaming pipeline reading chunks off the wire.
type ChunkDecoder struct {
	sink      RecordSink
	nextChunk int
	filesSeen bool
	chain     *ChunkHashChain
}

// NewChunkDecoder returns a decoder replaying verified records into sink.
func NewChunkDecoder(sink RecordSink) *ChunkDecoder {
	return &ChunkDecoder{sink: sink, chain: NewChunkHashChain()}
}

// AddChunk verifies and applies the next chunk of the stream. It rejects
// out-of-order chunks, records failing their integrity hash, chunks mixing
// record kinds, and directory records after the first file record.
func (d *ChunkDecoder) AddChunk(c *Chunk) error {
	if c.Index != d.nextChunk {
		return fmt.Errorf("fsimage: metadata chunk %d arrived out of order (want chunk %d) (%w)", c.Index, d.nextChunk, ErrManifestIntegrity)
	}
	if got := c.RecordsHash(); got != c.SHA256 {
		return fmt.Errorf("fsimage: metadata chunk %d failed its integrity check (recorded %s, recomputed %s) — corrupted in transit (%w)",
			c.Index, c.SHA256, got, ErrManifestIntegrity)
	}
	if len(c.Dirs) > 0 && len(c.Files) > 0 {
		return fmt.Errorf("fsimage: metadata chunk %d mixes directory and file records (%w)", c.Index, ErrManifestIntegrity)
	}
	if len(c.Dirs) > 0 && d.filesSeen {
		return fmt.Errorf("fsimage: metadata chunk %d carries directories after the file stream began (%w)", c.Index, ErrManifestIntegrity)
	}
	for _, rec := range c.Dirs {
		if err := d.sink.AddDir(rec); err != nil {
			return err
		}
	}
	for _, rec := range c.Files {
		d.filesSeen = true
		if err := d.sink.AddFile(rec); err != nil {
			return err
		}
	}
	d.chain.Add(c.SHA256)
	d.nextChunk++
	return nil
}

// ChainHash returns the running chain hash over the chunks applied so far;
// after the last chunk it must equal the stream's whole-image hash.
func (d *ChunkDecoder) ChainHash() string { return d.chain.Sum() }

// Chunks returns how many chunks have been applied.
func (d *ChunkDecoder) Chunks() int { return d.nextChunk }
