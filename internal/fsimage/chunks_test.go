package fsimage

import (
	"reflect"
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

// TestChunkSealerSharedByEncoders: encoders sharing one sealer, fed in turn
// as the fragment router feeds them, each emit their own chunks in order,
// with the hashes, renderings and chains the inline sealer gives them, at
// every parallelism.
func TestChunkSealerSharedByEncoders(t *testing.T) {
	img := buildTestImage(t)
	const k = 3
	type sealed struct {
		index      int
		hash, json string
	}
	seal := func(parallelism int) (chunks [k][]sealed, chains [k]string) {
		s := NewChunkSealer(parallelism)
		defer s.Close()
		encs := make([]*ChunkEncoder, k)
		for i := range encs {
			encs[i] = s.Encoder(2, true, func(c *Chunk, json []byte) error {
				chunks[i] = append(chunks[i], sealed{c.Index, c.SHA256, string(json)})
				return nil
			})
		}
		err := img.StreamRecords(recordFuncs{
			dir: func(d DirRecord) error {
				for _, e := range encs {
					if err := e.AddDir(d); err != nil {
						return err
					}
				}
				return nil
			},
			file: func(f File) error { return encs[f.ID%k].AddFile(f) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range encs {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			chains[i] = e.ChainHash()
		}
		return chunks, chains
	}
	wantChunks, wantChains := seal(1)
	for _, par := range []int{2, 3, 4} {
		if chunks, chains := seal(par); !reflect.DeepEqual(chunks, wantChunks) || chains != wantChains {
			t.Errorf("parallelism %d: the encoders emitted other chunks or chains than at parallelism 1", par)
		}
	}
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
