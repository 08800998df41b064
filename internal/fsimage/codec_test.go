package fsimage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// referenceRecordsHash is RecordsHash as it was written until PR 18: the
// record lines formatted through fmt straight into the hash. It defines the
// hashed text; the appending renderer is tested against it.
func referenceRecordsHash(c *Chunk) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nindex:%d\n", chunkHashVersion, c.Index)
	for _, d := range c.Dirs {
		fmt.Fprintf(h, "D %d %d %q %t %g\n", d.ID, d.Parent, d.Name, d.Special, d.Bias)
	}
	for _, f := range c.Files {
		fmt.Fprintf(h, "F %d %q %q %d %d %d\n", f.ID, f.Name, f.Ext, f.Size, f.DirID, f.Depth)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCodec holds the chunk's hash to the fmt reference and its appended
// JSON to json.Marshal, which until PR 18 was the encoder.
func checkCodec(t *testing.T, c *Chunk) []byte {
	t.Helper()
	if got, want := c.RecordsHash(), referenceRecordsHash(c); got != want {
		t.Fatalf("RecordsHash = %s, the fmt reference says %s, for %+v", got, want, c)
	}
	want, wantErr := json.Marshal(c)
	got, gotErr := c.AppendJSON([]byte("prefix"))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v, for %+v", gotErr, wantErr, c)
	}
	if wantErr != nil {
		return nil
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON:\n%s\njson.Marshal:\n%s", got, want)
	}
	return want
}

// FuzzChunkCodec is the differential test of the chunk codec: for any record
// values the hash equals the fmt rendering, the JSON equals encoding/json's,
// and what was written decodes back to the same records and verifies.
func FuzzChunkCodec(f *testing.F) {
	f.Add("file00000012.txt", "txt", int64(12), int64(3), int64(4096), int64(7), int64(2), 0.0, false)
	f.Add("R&D <tmp>", "a&b", int64(0), int64(-1), int64(0), int64(0), int64(1), 2.5, true)
	f.Add("line\u2028sep\u2029", "é", int64(1), int64(0), int64(1)<<40, int64(1), int64(9), 1e21, true)
	f.Add("bad\xff\xfeutf8", "\xc3", int64(2), int64(1), int64(5), int64(2), int64(3), 1e-7, false)
	f.Add("nul\x00\b\f\n\r\t\x7f", "\\\"'", int64(math.MaxInt64), int64(math.MinInt64), int64(-1), int64(-2), int64(-3), math.Copysign(0, -1), true)
	f.Add("", "", int64(3), int64(2), int64(1), int64(0), int64(1), math.Inf(1), true)
	f.Add("x", "y", int64(3), int64(2), int64(1), int64(0), int64(1), math.Inf(-1), false)
	f.Add("x", "y", int64(3), int64(2), int64(1), int64(0), int64(1), math.NaN(), false)
	f.Add("x", "y", int64(3), int64(2), int64(1), int64(0), int64(1), 123456789.125, false)
	f.Add("x", "y", int64(3), int64(2), int64(1), int64(0), int64(1), 5e-324, false)
	f.Fuzz(func(t *testing.T, name, ext string, id, parent, size, dirID, depth int64, bias float64, special bool) {
		dir := DirRecord{ID: int(id), Parent: int(parent), Name: name, Special: special, Bias: bias}
		file := File{ID: int(id), Name: name, Ext: ext, Size: size, DirID: int(dirID), Depth: int(depth)}
		plainDir := DirRecord{ID: 1, Parent: 0, Name: "dir1"}
		plainFile := File{ID: 7, Name: "file00000007.c", Ext: "c", Size: 10, DirID: 1, Depth: 2}
		chunks := []*Chunk{
			{Index: int(depth), Dirs: []DirRecord{plainDir, dir, plainDir}},
			{Index: int(id), Files: []File{plainFile, file, plainFile}},
			{Index: 3, Dirs: []DirRecord{dir}, Files: []File{file}}, // no decoder accepts it, but it renders
			{Index: 0},
		}
		for _, c := range chunks {
			c.SHA256 = name // any string can arrive in the field
			checkCodec(t, c)
			c.SHA256 = c.RecordsHash()
			raw := checkCodec(t, c)
			// Invalid UTF-8 decodes as U+FFFD, and a Bias of -0 is omitted
			// and decodes as +0, which hashes differently: two losses of the
			// wire format itself, older than this codec.
			if raw == nil || !utf8.ValidString(name) || !utf8.ValidString(ext) || (bias == 0 && math.Signbit(bias)) {
				continue
			}
			var back Chunk
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("decoding %s: %v", raw, err)
			}
			if !reflect.DeepEqual(&back, c) {
				t.Fatalf("decoded %+v, encoded %+v", &back, c)
			}
			if got := back.RecordsHash(); got != c.SHA256 {
				t.Fatalf("decoded chunk hashes to %s, sealed as %s", got, c.SHA256)
			}
		}
	})
}

// TestChunkCodecOnAnImage runs the differential check over real chunks, at
// chunk sizes that cut the hash buffer's flush threshold both ways.
func TestChunkCodecOnAnImage(t *testing.T) {
	img := buildTestImage(t)
	for _, cs := range []int{1, 4, 1 << 20} {
		for _, c := range collectChunks(t, img, cs) {
			checkCodec(t, c)
		}
	}
	// One chunk whose record lines fill the 32 KiB hash buffer several
	// times over, with a line longer than the buffer's slack in the middle.
	big := &Chunk{Index: 2}
	long := string(bytes.Repeat([]byte("n"), 3*hashFlushBytes))
	for i := 0; i < 4000; i++ {
		big.Files = append(big.Files, File{ID: i, Name: MakeFileName(i, "dat"), Ext: "dat", Size: int64(i) * 977, DirID: i % 13, Depth: 1 + i%5})
		big.Dirs = append(big.Dirs, DirRecord{ID: i, Parent: i / 2, Name: fmt.Sprintf("dir%d", i), Special: i%97 == 0, Bias: float64(i%3) / 4})
	}
	big.Files[2000].Name, big.Dirs[2000].Name = long, long
	checkCodec(t, big)
}

// TestResumeChunkEncoder: an encoder resumed after a directory section seals
// the same file chunks, and the same chain, as the encoder that saw it all.
func TestResumeChunkEncoder(t *testing.T) {
	img := buildTestImage(t)
	for _, cs := range []int{1, 4, 1 << 20} {
		whole := collectChunks(t, img, cs)
		var dirHashes []string
		for _, c := range whole {
			if len(c.Dirs) > 0 {
				dirHashes = append(dirHashes, c.SHA256)
			}
		}
		i := len(dirHashes)
		enc := ResumeChunkEncoder(cs, dirHashes, func(c *Chunk) error {
			if want := whole[i]; c.Index != want.Index || c.SHA256 != want.SHA256 || !reflect.DeepEqual(c.Files, want.Files) {
				t.Errorf("chunkSize=%d: resumed encoder sealed chunk %d as %s, the whole stream has chunk %d as %s", cs, c.Index, c.SHA256, want.Index, want.SHA256)
			}
			i++
			return nil
		})
		if err := enc.AddDir(DirRecord{ID: 99}); err == nil {
			t.Errorf("chunkSize=%d: resumed encoder accepted a directory record", cs)
		}
		for _, f := range img.Files {
			if err := enc.AddFile(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		chain := NewChunkHashChain()
		for _, c := range whole {
			chain.Add(c.SHA256)
		}
		if i != len(whole) || enc.Chunks() != len(whole) || enc.ChainHash() != chain.Sum() {
			t.Errorf("chunkSize=%d: resumed encoder ended at chunk %d (Chunks %d) chaining to %s, want %d chunks chaining to %s",
				cs, i, enc.Chunks(), enc.ChainHash(), len(whole), chain.Sum())
		}
	}
}

// TestMakeFileNameMatchesFmt holds the hand-assembled name to the fmt verbs
// that define it.
func TestMakeFileNameMatchesFmt(t *testing.T) {
	reference := func(counter int, ext string) string {
		if ext == "" || ext == "null" {
			return fmt.Sprintf("file%08d", counter)
		}
		return fmt.Sprintf("file%08d.%s", counter, ext)
	}
	for _, counter := range []int{0, 7, 12345678, 99999999, 100000000, math.MaxInt64, -1, -1234567, -12345678, math.MinInt64} {
		for _, ext := range []string{"", "null", "c", "tar.gz", "a-rather-long-extension-that-outgrows-the-stack-buffer"} {
			if got, want := MakeFileName(counter, ext), reference(counter, ext); got != want {
				t.Errorf("MakeFileName(%d, %q) = %q, fmt says %q", counter, ext, got, want)
			}
		}
	}
}

// BenchmarkChunkSeal is what sealing one full chunk of file records costs a
// plan encoder, per record: the records hash plus the JSON rendering. The
// reference row is the same work through fmt and json.Marshal.
func BenchmarkChunkSeal(b *testing.B) {
	c := &Chunk{Index: 25, Files: make([]File, DefaultChunkSize)}
	for i := range c.Files {
		ext := []string{"txt", "null", "dll", "h", "jpg"}[i%5]
		c.Files[i] = File{ID: 200000 + i, Name: MakeFileName(200000+i, ext), Ext: ext, Size: int64(i) * 4099, DirID: i % 40000, Depth: 2 + i%9}
	}
	var buf []byte
	for _, row := range []struct {
		name string
		seal func() error
	}{
		{"append", func() (err error) {
			c.SHA256 = c.RecordsHash()
			buf, err = c.AppendJSON(buf[:0])
			return err
		}},
		{"reference", func() (err error) {
			c.SHA256 = referenceRecordsHash(c)
			buf, err = json.Marshal(c)
			return err
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := row.seal(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Files)), "ns/record")
		})
	}
}
