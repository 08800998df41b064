package fsimage

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
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

// decodeChunkStream replays a serialized chunk array through a ChunkDecoder
// into the retained sink, exactly as the plan decoder does, and returns the
// first error (nil when the stream verifies end to end).
func decodeChunkStream(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return errors.New("not a chunk array") // a well-formed object is no stream either
	}
	sink := newCollector()
	b := NewChunkDecoder(sink)
	for dec.More() {
		var c Chunk
		if err := dec.Decode(&c); err != nil {
			return err
		}
		if err := b.AddChunk(&c); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	_, err = sink.image(Spec{})
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
// byte streams seeded from a valid stream and the malformed-chain corpus.
// The decoder may reject (it almost always must) but may never panic, and
// anything it accepts must re-encode to a consistent image.
func FuzzDecodeChunks(f *testing.F) {
	img := buildTestImage(f)
	valid := encodeChunkStream(f, img, 4)
	f.Add(valid)
	for _, data := range malformedChunkStreams(f, img) {
		f.Add(data)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"index":0,"dirs":[{"id":0,"parent":-1,"name":""}],"sha256":"zz"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := decodeChunkStream(data)
		if err != nil {
			return // rejection is the expected outcome for damaged input
		}
		// Accepted input must describe a valid image; re-encoding it must
		// not fail.
		dec := json.NewDecoder(bytes.NewReader(data))
		if _, terr := dec.Token(); terr != nil {
			t.Fatalf("accepted stream unreadable: %v", terr)
		}
		sink := newCollector()
		b := NewChunkDecoder(sink)
		for dec.More() {
			var c Chunk
			if derr := dec.Decode(&c); derr != nil {
				t.Fatalf("accepted stream re-decode: %v", derr)
			}
			if aerr := b.AddChunk(&c); aerr != nil {
				t.Fatalf("accepted stream re-apply: %v", aerr)
			}
		}
		rebuilt, ferr := sink.image(Spec{})
		if ferr != nil {
			t.Fatalf("accepted stream finish: %v", ferr)
		}
		if rebuilt.Validate() != nil {
			t.Fatalf("accepted stream built an invalid image")
		}
	})
}
