package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
)

// The chunked metadata stream is how large images travel inside plan files
// without ever being materialized as one JSON blob in memory: the image's
// directory records stream first (ID order), then its file records (ID
// order), sliced into hash-guarded chunks of at most a few thousand records
// each. Producers push records into a ChunkEncoder (any RecordSource will
// do), consumers replay verified chunks through a ChunkDecoder into any
// RecordSink, and both sides hold O(chunk) metadata buffers instead of
// O(image). The per-chunk hash covers the records themselves — not their
// JSON rendering — so integrity survives any re-encoding, and the chain over
// all chunk hashes (ChunkHashChain) stands in for a whole-image hash.
//
// An encoder cuts chunks; a ChunkSealer seals them. One sealer serves every
// encoder of a build: it hashes each cut chunk and, for an encoder that
// writes a document, renders it, on parallelism−1 goroutines while the
// goroutine feeding the encoders goes on cutting, and hands the sealed
// chunks back to that goroutine — which folds each encoder's chain and
// emits its chunks — in the order they were cut. At parallelism 1 it seals
// each chunk inline as it is cut; NewChunkEncoder is that case.

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
// times the cost of the SHA-256 it fed.
func (c *Chunk) RecordsHash() string {
	hash, _ := c.recordsHash(nil)
	return hash
}

// recordsHash is RecordsHash rendering the lines through buf, which it
// returns for the next call.
func (c *Chunk) recordsHash(buf []byte) (string, []byte) {
	h := sha256.New()
	// One buffer for all the lines: flushed when full, sized for a small
	// chunk when the chunk is small, with room for one more line.
	if need := min(hashFlushBytes, 128*(len(c.Dirs)+len(c.Files))) + 512; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = append(buf[:0], chunkHashVersion...)
	buf = append(buf, "\nindex:"...)
	buf = strconv.AppendInt(buf, int64(c.Index), 10)
	buf = append(buf, '\n')
	for i := range c.Dirs {
		d := &c.Dirs[i]
		buf = append(buf, 'D', ' ')
		buf = strconv.AppendInt(buf, int64(d.ID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(d.Parent), 10)
		buf = append(buf, ' ')
		buf = appendQuoted(buf, d.Name, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, d.Special)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, d.Bias, 'g', -1, 64)
		buf = append(buf, '\n')
		if len(buf) >= hashFlushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for i := range c.Files {
		f := &c.Files[i]
		buf = append(buf, 'F', ' ')
		buf = strconv.AppendInt(buf, int64(f.ID), 10)
		buf = append(buf, ' ')
		buf = appendQuoted(buf, f.Name, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = appendQuoted(buf, f.Ext, strconv.AppendQuote)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, f.Size, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(f.DirID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(f.Depth), 10)
		buf = append(buf, '\n')
		if len(buf) >= hashFlushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), buf
}

// AppendJSON appends the chunk's wire form, byte for byte what
// json.Marshal(c) returns, to dst. Integers, booleans and the strings that
// JSON copies through verbatim (appendQuoted) are appended directly; any
// other string and a non-zero Bias are rendered by encoding/json itself, so
// its escaping and float rules are never restated here. Like json.Marshal
// it fails on an infinite or NaN Bias. Decoding stays with encoding/json:
// it is the side that faces bytes this program did not write.
func (c *Chunk) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(c.Index), 10)
	if len(c.Dirs) > 0 {
		dst = append(dst, `,"dirs":[`...)
		for i := range c.Dirs {
			d := &c.Dirs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(d.ID), 10)
			dst = append(dst, `,"parent":`...)
			dst = strconv.AppendInt(dst, int64(d.Parent), 10)
			dst = append(dst, `,"name":`...)
			dst = appendQuoted(dst, d.Name, appendStdlibJSONString)
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
		dst = append(dst, ']')
	}
	if len(c.Files) > 0 {
		dst = append(dst, `,"files":[`...)
		for i := range c.Files {
			f := &c.Files[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"ID":`...)
			dst = strconv.AppendInt(dst, int64(f.ID), 10)
			dst = append(dst, `,"Name":`...)
			dst = appendQuoted(dst, f.Name, appendStdlibJSONString)
			dst = append(dst, `,"Ext":`...)
			dst = appendQuoted(dst, f.Ext, appendStdlibJSONString)
			dst = append(dst, `,"Size":`...)
			dst = strconv.AppendInt(dst, f.Size, 10)
			dst = append(dst, `,"DirID":`...)
			dst = strconv.AppendInt(dst, int64(f.DirID), 10)
			dst = append(dst, `,"Depth":`...)
			dst = strconv.AppendInt(dst, int64(f.Depth), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"sha256":`...)
	dst = appendQuoted(dst, c.SHA256, appendStdlibJSONString)
	return append(dst, '}'), nil
}

// appendQuoted appends s between double quotes as it stands when it is
// printable ASCII free of " \ < > & — a string that strconv.Quote and
// encoding/json (which escapes the last three for HTML) both copy through,
// as every generated name is — and leaves any other string to render, the
// renderer whose output the fast path stands for.
func appendQuoted(dst []byte, s string, render func([]byte, string) []byte) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b > 0x7e || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return render(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendStdlibJSONString appends json.Marshal(s).
func appendStdlibJSONString(dst []byte, s string) []byte {
	raw, _ := json.Marshal(s) // a string always marshals
	return append(dst, raw...)
}

// ChunkSealer seals the chunks its encoders cut (see the stream comment
// above). At most max(parallelism−1, 1) chunks are sealed and not yet
// emitted at any time, across all its encoders, and each holds its records
// and its rendering; when none is free, the next cut waits for the oldest
// and emits it. Encoders and the sealer belong to one goroutine. The first
// failure — a chunk that does not render, an emit that fails — is returned
// by every later call of any of its encoders.
type ChunkSealer struct {
	work   chan *sealSlot // to the sealing goroutines; nil seals inline
	wg     sync.WaitGroup
	free   []*sealSlot
	flight []*sealSlot // sealing or sealed, not yet emitted, oldest first
	err    error
}

// sealSlot is one chunk between its cut and its emit.
type sealSlot struct {
	c     Chunk
	dirs  []DirRecord // the record buffers c was cut into
	files []File
	enc   *ChunkEncoder
	lines []byte // RecordsHash's line buffer
	json  []byte // the rendering, when enc renders
	err   error  // a rendering failure
	done  chan struct{}
}

// NewChunkSealer returns a sealer for one build at the given parallelism
// (<= 0 selects runtime.NumCPU()). Above 1 it starts parallelism−1
// goroutines, which Close stops.
func NewChunkSealer(parallelism int) *ChunkSealer {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	workers := parallelism - 1
	s := &ChunkSealer{}
	for range max(workers, 1) {
		s.free = append(s.free, &sealSlot{done: make(chan struct{}, 1)})
	}
	if workers > 0 {
		// One place per slot: a cut never waits to hand its chunk over.
		s.work = make(chan *sealSlot, workers)
		s.wg.Add(workers)
		for range workers {
			go func() {
				defer s.wg.Done()
				for sl := range s.work {
					sl.seal()
					sl.done <- struct{}{}
				}
			}()
		}
	}
	return s
}

// Encoder returns an encoder cutting chunks of at most chunkSize records
// (<= 0 selects DefaultChunkSize) for this sealer to seal. With render set
// each chunk is also rendered (AppendJSON) and emit receives the rendering;
// otherwise it receives nil. The *Chunk and the rendering are reused after
// emit returns — emit must not retain them.
func (s *ChunkSealer) Encoder(chunkSize int, render bool, emit func(c *Chunk, json []byte) error) *ChunkEncoder {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkEncoder{sealer: s, chunkSize: chunkSize, render: render, emit: emit, chain: NewChunkHashChain()}
}

// Close stops the sealer's goroutines, abandoning the chunks in flight;
// every later call of its encoders fails. Further calls do nothing.
func (s *ChunkSealer) Close() {
	if s.work != nil {
		close(s.work)
		s.wg.Wait()
		s.work = nil
	}
	if s.err == nil {
		s.err = errSealerClosed
	}
}

var errSealerClosed = errors.New("fsimage: chunk sealer closed")

// renderBytes is about what AppendJSON takes for one generated record.
const renderBytes = 112

// seal hashes the slot's chunk and renders it when its encoder asks.
func (sl *sealSlot) seal() {
	sl.c.SHA256, sl.lines = sl.c.recordsHash(sl.lines)
	if sl.enc.render {
		// Sized for the chunk up front, a rendering is not copied from
		// buffer to ever larger buffer while every goroutine renders its own.
		if need := renderBytes * (len(sl.c.Dirs) + len(sl.c.Files)); cap(sl.json) < need {
			sl.json = make([]byte, 0, need)
		}
		if sl.json, sl.err = sl.c.AppendJSON(sl.json[:0]); sl.err != nil {
			sl.err = fmt.Errorf("fsimage: encoding chunk %d: %w", sl.c.Index, sl.err)
		}
	}
}

// cut seals the records e has buffered as its next chunk: inline, or handed
// to the goroutines in exchange for the record buffers of a free slot.
func (s *ChunkSealer) cut(e *ChunkEncoder) error {
	if s.err != nil {
		return s.err
	}
	if len(s.free) == 0 {
		if err := s.emitOldest(); err != nil {
			return err
		}
	}
	sl := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	sl.enc, sl.c.Index = e, e.cut
	e.cut++
	if s.work == nil {
		sl.c.Dirs, sl.c.Files = orNil(e.dirBuf), orNil(e.fileBuf)
		sl.seal()
		e.dirBuf, e.fileBuf = e.dirBuf[:0], e.fileBuf[:0]
		return s.emit(sl)
	}
	// A chunk holds one kind of record, and every directory chunk precedes
	// every file chunk: a slot that takes files keeps no directory buffer.
	if len(e.dirBuf) > 0 {
		sl.dirs, e.dirBuf = e.dirBuf, sl.dirs[:0]
		sl.c.Dirs, sl.c.Files = sl.dirs, nil
	} else {
		sl.files, e.fileBuf, sl.dirs = e.fileBuf, sl.files[:0], nil
		sl.c.Dirs, sl.c.Files = nil, sl.files
	}
	s.flight = append(s.flight, sl)
	s.work <- sl
	return nil
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// emitOldest waits for the oldest chunk in flight and emits it.
func (s *ChunkSealer) emitOldest() error {
	sl := s.flight[0]
	s.flight = append(s.flight[:0], s.flight[1:]...)
	<-sl.done
	return s.emit(sl)
}

// emit folds a sealed chunk into its encoder's chain, hands it to the
// encoder's emit and frees its slot.
func (s *ChunkSealer) emit(sl *sealSlot) error {
	e, err := sl.enc, sl.err
	if err == nil {
		e.chain.Add(sl.c.SHA256)
		e.sealed++
		err = e.emit(&sl.c, sl.json)
	}
	// The slot keeps its own buffers, not the records it borrowed inline.
	sl.enc, sl.err, sl.c.Dirs, sl.c.Files = nil, nil, nil, nil
	s.free = append(s.free, sl)
	if err != nil {
		s.err = err
	}
	return err
}

// drain emits chunks in flight until every chunk e has cut is emitted.
func (s *ChunkSealer) drain(e *ChunkEncoder) error {
	for e.sealed < e.cut {
		if s.err != nil {
			return s.err
		}
		if err := s.emitOldest(); err != nil {
			return err
		}
	}
	return s.err
}

// ChunkEncoder is the RecordSink that slices a metadata stream into sealed,
// hash-guarded chunks: directory records fill directory chunks, the first
// file record seals any partial directory chunk, and Close seals the
// trailing partial chunk. Only the records of the chunk being cut are
// buffered here, and those of the chunks in its sealer's flight there, so a
// generation pass can stream an arbitrarily large image through it in
// O(chunk) memory.
type ChunkEncoder struct {
	sealer    *ChunkSealer
	chunkSize int
	render    bool
	emit      func(*Chunk, []byte) error

	dirBuf  []DirRecord
	fileBuf []File
	files   bool // the file half of the stream has begun
	cut     int  // chunks cut
	sealed  int  // chunks emitted, all folded into chain
	chain   *ChunkHashChain
}

// NewChunkEncoder returns an encoder emitting chunks of at most chunkSize
// records (<= 0 selects DefaultChunkSize), each sealed inline as it is cut:
// the encoder of a sealer at parallelism 1, rendering nothing. The emitted
// *Chunk (and its record slices) is reused between emit calls — emit must
// not retain it.
func NewChunkEncoder(chunkSize int, emit func(*Chunk) error) *ChunkEncoder {
	return NewChunkSealer(1).Encoder(chunkSize, false, func(c *Chunk, _ []byte) error { return emit(c) })
}

// AddDir buffers the next directory record, sealing a chunk when full.
func (e *ChunkEncoder) AddDir(d DirRecord) error {
	if e.files {
		return fmt.Errorf("fsimage: directory record %d after the file stream began", d.ID)
	}
	e.dirBuf = append(e.dirBuf, d)
	if len(e.dirBuf) >= e.chunkSize {
		return e.flush()
	}
	return nil
}

// AddFile buffers the next file record, sealing the partial directory chunk
// on the first file and full file chunks thereafter.
func (e *ChunkEncoder) AddFile(f File) error {
	if !e.files {
		if err := e.flush(); err != nil {
			return err
		}
		e.files, e.dirBuf = true, nil
	}
	e.fileBuf = append(e.fileBuf, f)
	if len(e.fileBuf) >= e.chunkSize {
		return e.flush()
	}
	return nil
}

// flush cuts the buffered records as one chunk (no-op if empty).
func (e *ChunkEncoder) flush() error {
	if len(e.dirBuf) == 0 && len(e.fileBuf) == 0 {
		return nil
	}
	return e.sealer.cut(e)
}

// Close cuts the trailing partial chunk and waits until every chunk of the
// encoder is emitted. It must be called after the last record; the encoder
// may be inspected (Chunks, ChainHash) afterwards.
func (e *ChunkEncoder) Close() error {
	if err := e.flush(); err != nil {
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
