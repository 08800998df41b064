package fsimage

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeChunks replays img into a ChunkEncoder handing its chunks to emit.
func encodeChunks(img *Image, chunkSize int, emit func(*Chunk) error) error {
	enc := NewChunkEncoder(chunkSize, emit)
	if err := img.StreamRecords(enc); err != nil {
		return err
	}
	return enc.Close()
}

// sameRecords reports whether two images replay the same record stream under
// the same spec.
func sameRecords(t *testing.T, a, b *Image) bool {
	t.Helper()
	var logs [2]struct {
		dirs  []DirRecord
		files []File
	}
	for i, img := range []*Image{a, b} {
		l := &logs[i]
		err := img.StreamRecords(recordFuncs{
			dir:  func(d DirRecord) error { l.dirs = append(l.dirs, d); return nil },
			file: func(f File) error { l.files = append(l.files, f); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return reflect.DeepEqual(a.Spec, b.Spec) && reflect.DeepEqual(logs[0], logs[1])
}

type recordFuncs struct {
	dir  func(DirRecord) error
	file func(File) error
}

func (r recordFuncs) AddDir(d DirRecord) error { return r.dir(d) }
func (r recordFuncs) AddFile(f File) error     { return r.file(f) }

// collectChunks encodes img and deep-copies each emitted chunk (the encoder
// reuses its buffers between calls).
func collectChunks(t *testing.T, img *Image, chunkSize int) []*Chunk {
	t.Helper()
	var out []*Chunk
	err := encodeChunks(img, chunkSize, func(c *Chunk) error {
		cp := *c
		cp.Dirs = append([]DirRecord(nil), c.Dirs...)
		cp.Files = append([]File(nil), c.Files...)
		out = append(out, &cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ChunkEncoder: %v", err)
	}
	return out
}

// rebuild feeds chunks through a ChunkDecoder into the retained sink.
func rebuild(t *testing.T, spec Spec, chunks []*Chunk) (*Image, string) {
	t.Helper()
	sink := newCollector()
	dec := NewChunkDecoder(sink)
	for _, c := range chunks {
		if err := dec.AddChunk(c); err != nil {
			t.Fatalf("AddChunk(%d): %v", c.Index, err)
		}
	}
	img, err := sink.image(spec)
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	return img, dec.ChainHash()
}

// TestChunkRoundTrip: an image sliced into chunks and rebuilt must replay the
// identical records, at several chunk sizes (including ones that force both
// multi-chunk dirs and multi-chunk files).
func TestChunkRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	for _, cs := range []int{1, 3, 7, 1 << 20} {
		chunks := collectChunks(t, img, cs)
		wantChunks := (img.DirCount()+cs-1)/cs + (img.FileCount()+cs-1)/cs
		if len(chunks) != wantChunks {
			t.Fatalf("chunkSize=%d: got %d chunks, want %d", cs, len(chunks), wantChunks)
		}
		got, chain := rebuild(t, img.Spec, chunks)
		if !sameRecords(t, got, img) {
			t.Fatalf("chunkSize=%d: rebuilt image differs from the original", cs)
		}
		hashes := NewChunkHashChain()
		for _, c := range chunks {
			hashes.Add(c.SHA256)
		}
		if chain != hashes.Sum() {
			t.Fatalf("chunkSize=%d: decoder chain hash differs from the chain of the chunks' hashes", cs)
		}
	}
}

// TestChunkHashIsContentBased: re-encoding a chunk (different JSON
// formatting) must not change its hash, but flipping any record field must.
func TestChunkHashIsContentBased(t *testing.T) {
	img := buildTestImage(t)
	chunks := collectChunks(t, img, 4)
	for _, c := range chunks {
		if c.SHA256 != c.RecordsHash() {
			t.Fatalf("chunk %d not sealed with its records hash", c.Index)
		}
	}
	fileChunk := chunks[len(chunks)-1]
	orig := fileChunk.RecordsHash()
	fileChunk.Files[0].Size++
	if fileChunk.RecordsHash() == orig {
		t.Error("hash ignores file size")
	}
	fileChunk.Files[0].Size--
	dirChunk := chunks[0]
	orig = dirChunk.RecordsHash()
	dirChunk.Dirs[1].Name += "x"
	if dirChunk.RecordsHash() == orig {
		t.Error("hash ignores directory name")
	}
}

// TestChunkDecoderRejectsBadStreams covers corruption, reordering and
// structural violations.
func TestChunkDecoderRejectsBadStreams(t *testing.T) {
	img := buildTestImage(t)
	chunks := collectChunks(t, img, 4)

	corrupt := *chunks[len(chunks)-1]
	corrupt.Files = append([]File(nil), corrupt.Files...)
	corrupt.Files[0].Size += 7 // seal not recomputed
	b := NewChunkDecoder(newCollector())
	for _, c := range chunks[:len(chunks)-1] {
		if err := b.AddChunk(c); err != nil {
			t.Fatalf("AddChunk: %v", err)
		}
	}
	if err := b.AddChunk(&corrupt); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Errorf("corrupted chunk: got %v, want an integrity error", err)
	}

	b = NewChunkDecoder(newCollector())
	if err := b.AddChunk(chunks[1]); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("out-of-order chunk: got %v", err)
	}

	// Directory records after the file stream began.
	b = NewChunkDecoder(newCollector())
	for _, c := range chunks {
		if err := b.AddChunk(c); err != nil {
			t.Fatalf("AddChunk: %v", err)
		}
	}
	late := Chunk{Index: len(chunks), Dirs: []DirRecord{{ID: 999, Parent: 0, Name: "late"}}}
	late.SHA256 = late.RecordsHash()
	if err := b.AddChunk(&late); err == nil || !strings.Contains(err.Error(), "after the file stream") {
		t.Errorf("late dirs: got %v", err)
	}

	// A mixed chunk is structurally invalid.
	mixed := Chunk{Index: 0, Dirs: []DirRecord{{ID: 0, Name: "root"}}, Files: []File{{ID: 0, Name: "f"}}}
	mixed.SHA256 = mixed.RecordsHash()
	if err := NewChunkDecoder(newCollector()).AddChunk(&mixed); err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Errorf("mixed chunk: got %v", err)
	}

	// An empty stream has no image.
	if _, err := newCollector().image(img.Spec); err == nil {
		t.Error("empty stream should not finish")
	}
}

// TestChunkSealerPieces: what the piece sealer emits is what the
// whole-chunk codec says of the same records cut at the same chunk
// boundaries — each chunk's pieces concatenate to its AppendJSON, its last
// piece carries its RecordsHash, and each encoder chains the same hashes —
// at chunk sizes about a piece, for encoders sharing one sealer and fed in
// turn as the fragment router feeds them, taking no file, one, fewer than
// a piece and many, and for a stream of directories only, at every
// parallelism. Every trailing chunk is cut before any encoder is closed.
// NewChunkEncoder, which reads each chunk back off its rendering, emits the
// same chunks too.
func TestChunkSealerPieces(t *testing.T) {
	const (
		k           = 4
		dirs, files = 2500, 10000 // the directories span pieces
	)
	// File i goes to encoder shareOf(i): none to 0, one to 1, fewer than a
	// piece to 2, the rest to 3.
	shareOf := func(id int) int {
		switch {
		case id == 5:
			return 1
		case id%50 == 0:
			return 2
		}
		return 3
	}
	dir := func(id int) DirRecord {
		return DirRecord{ID: id, Parent: max(id-1, 0) / 3, Name: fmt.Sprintf("d%d", id), Special: id%11 == 0, Bias: float64(id%3) / 4}
	}
	file := func(id int) File {
		return File{ID: id, Name: MakeFileName(id, "txt"), Ext: "txt", Size: int64(id * 37), DirID: id % dirs, Depth: 1 + id%5}
	}
	type sealed struct {
		index      int
		hash, json string
	}
	// want is the whole-chunk codec's view of encoder i's records.
	want := func(chunkSize, i int, withFiles bool) (chunks []sealed, chain string) {
		var recs [2]Chunk
		for id := range dirs {
			recs[0].Dirs = append(recs[0].Dirs, dir(id))
		}
		for id := range files {
			if withFiles && shareOf(id) == i {
				recs[1].Files = append(recs[1].Files, file(id))
			}
		}
		ch := NewChunkHashChain()
		for _, r := range recs {
			for lo := 0; lo < len(r.Dirs)+len(r.Files); lo += chunkSize {
				c := Chunk{Index: len(chunks)}
				if r.Dirs != nil {
					c.Dirs = r.Dirs[lo:min(lo+chunkSize, len(r.Dirs))]
				} else {
					c.Files = r.Files[lo:min(lo+chunkSize, len(r.Files))]
				}
				c.SHA256 = c.RecordsHash()
				raw, err := c.AppendJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				chunks = append(chunks, sealed{c.Index, c.SHA256, string(raw)})
				ch.Add(c.SHA256)
			}
		}
		return chunks, ch.Sum()
	}
	seal := func(parallelism, chunkSize int, withFiles bool) (chunks [k][]sealed, chains [k]string) {
		s := NewChunkSealer(parallelism)
		defer s.Close()
		encs := make([]*ChunkEncoder, k)
		for i := range encs {
			var open []byte
			encs[i] = s.Encoder(chunkSize, func(p *ChunkPiece) error {
				if p.First != (open == nil) {
					return fmt.Errorf("encoder %d: piece of chunk %d with First %t", i, p.Index, p.First)
				}
				open = append(open, p.JSON...)
				if p.SHA256 != "" {
					chunks[i] = append(chunks[i], sealed{p.Index, p.SHA256, string(open)})
					open = nil
				}
				return nil
			})
		}
		for id := range dirs {
			for _, e := range encs {
				if err := e.AddDir(dir(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id := range files {
			if withFiles {
				if err := encs[shareOf(id)].AddFile(file(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range encs {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range encs {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e.Chunks() != len(chunks[i]) {
				t.Fatalf("encoder %d counts %d chunks, emitted %d", i, e.Chunks(), len(chunks[i]))
			}
			chains[i] = e.ChainHash()
		}
		return chunks, chains
	}
	for _, withFiles := range []bool{true, false} {
		for _, chunkSize := range []int{1, 7, pieceRecords - 1, pieceRecords, pieceRecords + 1, DefaultChunkSize} {
			var wantChunks [k][]sealed
			var wantChains [k]string
			for i := range k {
				wantChunks[i], wantChains[i] = want(chunkSize, i, withFiles)
			}
			var whole []sealed
			enc := NewChunkEncoder(chunkSize, func(c *Chunk) error {
				raw, err := c.AppendJSON(nil)
				whole = append(whole, sealed{c.Index, c.SHA256, string(raw)})
				return err
			})
			for id := range dirs {
				if err := enc.AddDir(dir(id)); err != nil {
					t.Fatal(err)
				}
			}
			for id := range files {
				if withFiles && shareOf(id) == k-1 {
					if err := enc.AddFile(file(id)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(whole, wantChunks[k-1]) || enc.ChainHash() != wantChains[k-1] {
				t.Errorf("files %t, chunk size %d: NewChunkEncoder emitted %d chunks chaining to %.12s, the whole-chunk codec says %d chaining to %.12s",
					withFiles, chunkSize, len(whole), enc.ChainHash(), len(wantChunks[k-1]), wantChains[k-1])
			}
			for _, par := range []int{1, 2, 3, 8} {
				chunks, chains := seal(par, chunkSize, withFiles)
				for i := range k {
					if !reflect.DeepEqual(chunks[i], wantChunks[i]) || chains[i] != wantChains[i] {
						t.Errorf("files %t, chunk size %d, parallelism %d: encoder %d emitted %d chunks chaining to %.12s, the whole-chunk codec says %d chaining to %.12s",
							withFiles, chunkSize, par, i, len(chunks[i]), chains[i], len(wantChunks[i]), wantChains[i])
					}
				}
			}
		}
	}
}

// TestChunkSealerAtOneStartsNoGoroutine: a sealer at parallelism 1 starts
// no goroutine, neither when it is made nor while encoders seal through it:
// the goroutine handing the pieces over formats and emits each of them.
func TestChunkSealerAtOneStartsNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewChunkSealer(1)
	defer s.Close()
	peak, emits := runtime.NumGoroutine(), 0
	encs := make([]*ChunkEncoder, 3)
	for i := range encs {
		encs[i] = s.Encoder(pieceRecords+1, func(*ChunkPiece) error {
			emits++
			peak = max(peak, runtime.NumGoroutine())
			return nil
		})
	}
	for id := range 10 * pieceRecords {
		if err := encs[id%len(encs)].AddFile(File{ID: id, Name: MakeFileName(id, "c"), Ext: "c", Size: int64(id), Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range encs {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if emits == 0 || peak > baseline {
		t.Errorf("%d emits saw up to %d goroutines, %d before NewChunkSealer(1)", emits, peak, baseline)
	}
}

// sealInPieces seals c, whose records are of one kind, as a rendering
// encoder's sealer does, in two pieces split after its first at records:
// it returns the concatenated rendering and the hash the last piece
// carries.
func sealInPieces(c *Chunk, at int) (rendering []byte, hash string, err error) {
	e := NewChunkSealer(1).Encoder(0, func(p *ChunkPiece) error {
		rendering = append(rendering, p.JSON...)
		hash = p.SHA256
		return nil
	})
	n := len(c.Dirs) + len(c.Files)
	for i, r := range [][2]int{{0, at}, {at, n}} {
		p := &piece{enc: e, index: c.Index, first: i == 0, last: i == 1}
		if c.Dirs != nil {
			p.dirs = c.Dirs[r[0]:r[1]]
		} else {
			p.files = c.Files[r[0]:r[1]]
		}
		p.format()
		if err := p.tail(); err != nil {
			return nil, "", err
		}
	}
	return rendering, hash, nil
}

// TestChunkEncoderBounded asserts the encoder is actually streaming: with a
// small chunk size it must emit many chunks, and no single chunk may carry
// more than chunkSize records — the O(chunk) memory contract.
func TestChunkEncoderBounded(t *testing.T) {
	img := buildTestImage(t)
	const cs = 2
	n := 0
	err := encodeChunks(img, cs, func(c *Chunk) error {
		if len(c.Dirs) > cs || len(c.Files) > cs {
			t.Fatalf("chunk %d carries %d+%d records, limit %d", c.Index, len(c.Dirs), len(c.Files), cs)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (img.DirCount()+cs-1)/cs + (img.FileCount()+cs-1)/cs; n != want {
		t.Fatalf("emitted %d chunks, want %d", n, want)
	}
}
