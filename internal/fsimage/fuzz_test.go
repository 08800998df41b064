package fsimage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"impressions/internal/jsonscan"
)

// encodeChunkStream renders an image's chunk stream as a JSON array — the
// exact shape the plan wire format embeds under "chunks".
func encodeChunkStream(t testing.TB, img *Image, chunkSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte('[')
	first := true
	err := encodeChunks(img, chunkSize, func(c *Chunk) error {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		raw, err := json.Marshal(c)
		if err != nil {
			return err
		}
		buf.Write(raw)
		return nil
	})
	if err != nil {
		t.Fatalf("ChunkEncoder: %v", err)
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// readChunkStream reads a serialized chunk array with a ChunkReader, as the
// plan decoder reads one, handing each chunk to add; it returns the first
// error.
func readChunkStream(data []byte, add func(*Chunk) error) error {
	s := jsonscan.New(bufio.NewReader(bytes.NewReader(data)))
	s.Lit("[")
	r := NewChunkReader(s)
	for more := !s.Opt("]"); more; more = s.Next() {
		c, err := r.Read()
		if err != nil {
			return err
		}
		if err := add(c); err != nil {
			return err
		}
	}
	s.End()
	return s.Err()
}

// decodeChunkStream replays a serialized chunk array through a ChunkDecoder
// into the retained sink, exactly as the plan decoder does, and returns the
// first error (nil when the stream verifies end to end).
func decodeChunkStream(data []byte) error {
	sink := newCollector()
	if err := readChunkStream(data, NewChunkDecoder(sink).AddChunk); err != nil {
		return err
	}
	_, err := sink.image(Spec{})
	return err
}

// malformedChunkStreams builds the corpus of damaged streams every
// hash-guarded decoder must reject: truncation, reordering, bit flips in
// records and in the guarding hashes, record-kind mixing, and duplication.
func malformedChunkStreams(t testing.TB, img *Image) map[string][]byte {
	t.Helper()
	valid := encodeChunkStream(t, img, 4)
	out := map[string][]byte{}

	// Truncated mid-chunk: cut the array at 60% of its bytes.
	out["truncated"] = valid[:len(valid)*6/10]

	// Reordered: swap two chunks (index fields travel with them, so the
	// decoder sees chunk 1 arrive first).
	var chunks []json.RawMessage
	if err := json.Unmarshal(valid, &chunks); err != nil {
		t.Fatalf("unmarshal valid stream: %v", err)
	}
	if len(chunks) < 3 {
		t.Fatalf("corpus image too small: %d chunks", len(chunks))
	}
	swap := append([]json.RawMessage(nil), chunks...)
	swap[0], swap[1] = swap[1], swap[0]
	out["reordered"] = mustJoin(t, swap)

	// Dropped: remove a middle chunk (chain and indexes both break).
	dropped := append(append([]json.RawMessage(nil), chunks[:1]...), chunks[2:]...)
	out["dropped"] = mustJoin(t, dropped)

	// Duplicated: replay the same chunk twice.
	dup := append([]json.RawMessage(nil), chunks[0], chunks[0])
	dup = append(dup, chunks[1:]...)
	out["duplicated"] = mustJoin(t, dup)

	// Bit-flipped record: corrupt a record payload byte, leaving the
	// recorded hash intact — the integrity check must catch it.
	flip := append([]byte(nil), valid...)
	if i := bytes.Index(flip, []byte(`"name":"dir`)); i >= 0 {
		flip[i+len(`"name":"`)] ^= 0x01
		out["bit-flipped record"] = flip
	}

	// Bit-flipped hash: corrupt a guarding SHA-256 hex digit instead.
	fliph := append([]byte(nil), valid...)
	if i := bytes.Index(fliph, []byte(`"sha256":"`)); i >= 0 {
		p := i + len(`"sha256":"`)
		if fliph[p] == 'f' {
			fliph[p] = '0'
		} else {
			fliph[p] = 'f'
		}
		out["bit-flipped hash"] = fliph
	}

	// Mixed chunk: a chunk carrying both record kinds (hash recomputed so
	// only the structural rule can reject it).
	mixed := &Chunk{Index: 0,
		Dirs:  []DirRecord{{ID: 0, Parent: -1, Name: ""}},
		Files: []File{{ID: 0, Name: "f", DirID: 0, Depth: 1}}}
	mixed.SHA256 = mixed.RecordsHash()
	raw, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	out["mixed kinds"] = mustJoin(t, []json.RawMessage{raw})

	// Dirs after files: two well-hashed chunks in the forbidden order.
	d0 := &Chunk{Index: 0, Dirs: []DirRecord{{ID: 0, Parent: -1}}}
	d0.SHA256 = d0.RecordsHash()
	f1 := &Chunk{Index: 1, Files: []File{{ID: 0, Name: "f", DirID: 0, Depth: 1}}}
	f1.SHA256 = f1.RecordsHash()
	d2 := &Chunk{Index: 2, Dirs: []DirRecord{{ID: 1, Parent: 0, Name: "late"}}}
	d2.SHA256 = d2.RecordsHash()
	parts := make([]json.RawMessage, 0, 3)
	for _, c := range []*Chunk{d0, f1, d2} {
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, raw)
	}
	out["dirs after files"] = mustJoin(t, parts)

	return out
}

func mustJoin(t testing.TB, chunks []json.RawMessage) []byte {
	t.Helper()
	joined, err := json.Marshal(chunks)
	if err != nil {
		t.Fatal(err)
	}
	return joined
}

// TestDecodeChunksRejectsMalformedChains: every corpus entry must be
// rejected with an error — never accepted, never a panic.
func TestDecodeChunksRejectsMalformedChains(t *testing.T) {
	img := buildTestImage(t)
	if err := decodeChunkStream(encodeChunkStream(t, img, 4)); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, data := range malformedChunkStreams(t, img) {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			if err := decodeChunkStream(data); err == nil {
				t.Errorf("%s chunk stream accepted", name)
			}
		})
	}
}

// FuzzDecodeChunks hammers the hash-guarded chunk decoder with arbitrary
// byte streams seeded from a valid stream and the malformed-chain corpus,
// and holds ChunkReader to a round trip both ways. A stream it reads is
// what AppendJSON writes for the chunks read, byte for byte; the chunks
// encoding/json finds in any input, written by AppendJSON, read back to the
// same records. The decoder may reject (it almost always must) but may
// never panic, and anything it accepts must re-encode to a consistent
// image.
func FuzzDecodeChunks(f *testing.F) {
	img := buildTestImage(f)
	valid := encodeChunkStream(f, img, 4)
	f.Add(valid)
	for _, data := range malformedChunkStreams(f, img) {
		f.Add(data)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"index":0,"dirs":[{"id":0,"parent":-1,"name":""}],"sha256":"zz"}]`))
	f.Add([]byte(`[{"INDEX":0,"dirs":[{"id":1,"name":"a","x":[{}]},{"id":2}],"Dirs":[{"parent":3}],"files":null,"sha256":null},null]`))
	f.Add([]byte(`[{"index":0,"dirs":[{"id":1},],"sha256":""}]`))
	f.Add([]byte(`[{"index":00,"sha256":""}]`))
	f.Add([]byte(`[{"index":0,"files":[{"ID":1,"Size":1e3}]}]`))
	f.Add([]byte(`[{"index":1,"dirs":[{"id":1,"parent":0,"name":"\u0001\u003c","special":true,"bias":1e+21}],"files":[{"ID":2,"Name":"é","Ext":"","Size":-1,"DirID":0,"Depth":0}],"sha256":""}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var read []Chunk
		err := readChunkStream(data, func(c *Chunk) error {
			read = append(read, Chunk{Index: c.Index, Dirs: slices.Clone(c.Dirs), Files: slices.Clone(c.Files), SHA256: c.SHA256})
			return nil
		})
		if err == nil {
			if again := appendChunks(t, read); !bytes.Equal(again, data) {
				t.Fatalf("ChunkReader read\n%s\nwhich AppendJSON writes as\n%s", data, again)
			}
		}
		var values []Chunk
		if json.Unmarshal(data, &values) == nil {
			written := appendChunks(t, values)
			var back []Chunk
			if written != nil {
				if err := readChunkStream(written, func(c *Chunk) error {
					back = append(back, Chunk{Index: c.Index, Dirs: slices.Clone(c.Dirs), Files: slices.Clone(c.Files), SHA256: c.SHA256})
					return nil
				}); err != nil {
					t.Fatalf("AppendJSON wrote\n%s\nwhich does not read back: %v", written, err)
				}
			}
			for i := range back {
				if w := values[i]; back[i].Index != w.Index || back[i].SHA256 != w.SHA256 || !slices.Equal(back[i].Dirs, w.Dirs) || !slices.Equal(back[i].Files, w.Files) {
					t.Fatalf("chunk %d: written as %+v, read back as %+v", i, w, back[i])
				}
			}
		}
		if decodeChunkStream(data) != nil {
			return // rejection is the expected outcome for damaged input
		}
		// Accepted input must describe a valid image.
		sink := newCollector()
		b := NewChunkDecoder(sink)
		for i := range read {
			if err := b.AddChunk(&read[i]); err != nil {
				t.Fatalf("accepted stream re-apply: %v", err)
			}
		}
		rebuilt, err := sink.image(Spec{})
		if err != nil {
			t.Fatalf("accepted stream finish: %v", err)
		}
		if rebuilt.Validate() != nil {
			t.Fatalf("accepted stream built an invalid image")
		}
	})
}

// appendChunks writes chunks as a chunk array with AppendJSON, or returns
// nil where AppendJSON fails.
func appendChunks(t *testing.T, chunks []Chunk) []byte {
	out := []byte{'['}
	for i := range chunks {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = chunks[i].AppendJSON(out); err != nil {
			return nil
		}
	}
	return append(out, ']')
}
