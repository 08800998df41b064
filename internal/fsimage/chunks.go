package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"
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
	h := sha256.New()
	// One buffer for all the lines: flushed when full, sized for a small
	// chunk when the chunk is small, with room for one more line.
	buf := make([]byte, 0, min(hashFlushBytes, 128*(len(c.Dirs)+len(c.Files)))+512)
	buf = append(buf, chunkHashVersion...)
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
	return hex.EncodeToString(h.Sum(sum[:0]))
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

// ChunkEncoder is the RecordSink that slices a metadata stream into sealed,
// hash-guarded chunks: directory records fill directory chunks, the first
// file record seals any partial directory chunk, and Close seals the
// trailing partial chunk. Only one chunk's records are ever buffered, so a
// generation pass can stream an arbitrarily large image through it in
// O(chunk) memory. The emitted *Chunk (and its record slices) is reused
// between emit calls — emit must not retain it.
type ChunkEncoder struct {
	chunkSize int
	emit      func(*Chunk) error

	c       Chunk
	dirBuf  []DirRecord
	fileBuf []File
	files   bool // the file half of the stream has begun
	chain   *ChunkHashChain
}

// NewChunkEncoder returns an encoder emitting chunks of at most chunkSize
// records (<= 0 selects DefaultChunkSize).
func NewChunkEncoder(chunkSize int, emit func(*Chunk) error) *ChunkEncoder {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkEncoder{chunkSize: chunkSize, emit: emit, chain: NewChunkHashChain()}
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
		e.files = true
	}
	e.fileBuf = append(e.fileBuf, f)
	if len(e.fileBuf) >= e.chunkSize {
		return e.flush()
	}
	return nil
}

// flush seals and emits the buffered records as one chunk (no-op if empty).
func (e *ChunkEncoder) flush() error {
	if len(e.dirBuf) == 0 && len(e.fileBuf) == 0 {
		return nil
	}
	e.c.Dirs, e.c.Files = e.dirBuf, e.fileBuf
	if len(e.dirBuf) == 0 {
		e.c.Dirs = nil
	}
	if len(e.fileBuf) == 0 {
		e.c.Files = nil
	}
	e.c.SHA256 = e.c.RecordsHash()
	e.chain.Add(e.c.SHA256)
	err := e.emit(&e.c)
	e.c.Index++
	e.dirBuf = e.dirBuf[:0]
	e.fileBuf = e.fileBuf[:0]
	return err
}

// Close seals the trailing partial chunk. It must be called after the last
// record; the encoder may be inspected (Chunks, ChainHash) afterwards.
func (e *ChunkEncoder) Close() error { return e.flush() }

// Chunks returns how many chunks have been sealed so far.
func (e *ChunkEncoder) Chunks() int { return e.c.Index }

// ChainHash returns the running chain hash over the sealed chunks; after
// Close it is the whole-image integrity value a chunked stream's header or
// trailer records.
func (e *ChunkEncoder) ChainHash() string { return e.chain.Sum() }

// ResumeChunkEncoder returns an encoder for the file half of a stream whose
// directory chunks were sealed elsewhere: dirHashes are their RecordsHash
// values in stream order. Its first chunk is numbered len(dirHashes), its
// chain starts from those hashes, and it rejects directory records. The K
// fragments of a partitioned plan share one directory section this way
// instead of each hashing and rendering it again.
func ResumeChunkEncoder(chunkSize int, dirHashes []string, emit func(*Chunk) error) *ChunkEncoder {
	e := NewChunkEncoder(chunkSize, emit)
	for _, h := range dirHashes {
		e.chain.Add(h)
	}
	e.c.Index = len(dirHashes)
	e.files = true
	return e
}

// ChunkHashChain incrementally folds chunk hashes into the whole-image
// integrity hash, so neither side needs to hold the per-chunk hash list.
type ChunkHashChain struct {
	h hash.Hash
}

// NewChunkHashChain starts an empty chain.
func NewChunkHashChain() *ChunkHashChain {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-plan-chunk-chain-v1\n")
	return &ChunkHashChain{h: h}
}

// Add folds one chunk hash (hex) into the chain.
func (c *ChunkHashChain) Add(chunkHash string) {
	fmt.Fprintf(c.h, "%s\n", chunkHash)
}

// Sum returns the chain hash (hex) over everything added so far.
func (c *ChunkHashChain) Sum() string {
	return hex.EncodeToString(c.h.Sum(nil))
}

// ChunkDecoder verifies a chunked metadata stream — chunk order, per-chunk
// integrity hashes, the dirs-before-files invariant — and replays the
// verified records into any RecordSink, maintaining the running hash chain.
// It is the guard every chunk consumer shares: the plan decoders, the merge's
// replay of a plan document, and any streaming pipeline reading chunks off
// the wire.
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
