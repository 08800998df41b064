package fsimage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/stats"
)

// collector reassembles an image from a record stream: a TreeSink, which
// validates the stream and rebuilds the tree, keeping the file records.
type collector struct {
	TreeSink
	files []File
}

func newCollector() *collector {
	c := &collector{}
	c.OnFile = func(f File) error { c.files = append(c.files, f); return nil }
	return c
}

// image validates and returns the reassembled image, which carries spec.
func (c *collector) image(spec Spec) (*Image, error) {
	if c.Tree() == nil {
		return nil, errors.New("the stream carried no directory")
	}
	img := &Image{Tree: c.Tree(), Files: c.files, Spec: spec}
	return img, img.Validate()
}

// TestStreamRecordsRoundTrip: replaying an image through a collecting
// TreeSink must reproduce it record for record (records, spec, tree
// counters).
func TestStreamRecordsRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	sink := newCollector()
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	got, err := sink.image(img.Spec)
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	if !sameRecords(t, img, got) {
		t.Error("round-tripped image replays different records")
	}
	for id := range img.Tree.Dirs {
		want, have := img.Tree.Dirs[id], got.Tree.Dirs[id]
		if want.FileCount != have.FileCount || want.Bytes != have.Bytes || want.SubdirCount != have.SubdirCount {
			t.Fatalf("dir %d counters diverge: %+v vs %+v", id, want, have)
		}
	}
}

// TestTreeSinkRejectsBadStreams: the structural validation every streaming
// consumer inherits.
func TestTreeSinkRejectsBadStreams(t *testing.T) {
	dir := func(id, parent int) DirRecord { return DirRecord{ID: id, Parent: parent, Name: fmt.Sprintf("d%d", id)} }
	file := func(id, dirID, depth int, size int64, name string) File {
		return File{ID: id, Name: name, Size: size, DirID: dirID, Depth: depth}
	}
	type sinkCase struct {
		name string
		feed func(s *TreeSink) error
	}
	cases := []sinkCase{
		{"non-root first", func(s *TreeSink) error { return s.AddDir(dir(1, 0)) }},
		{"sparse dir ids", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddDir(dir(2, 0))
		}},
		{"bad parent", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddDir(dir(1, 7))
		}},
		{"file before dirs", func(s *TreeSink) error { return s.AddFile(file(0, 0, 1, 1, "f")) }},
		{"dir after file", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			if err := s.AddFile(file(0, 0, 1, 1, "f")); err != nil {
				return err
			}
			return s.AddDir(dir(1, 0))
		}},
		{"sparse file ids", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(3, 0, 1, 1, "f"))
		}},
		{"unknown dir", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 5, 1, 1, "f"))
		}},
		{"negative size", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 1, -4, "f"))
		}},
		{"wrong depth", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 3, 1, "f"))
		}},
		{"bad name", func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 1, 1, "a/b"))
		}},
	}
	// A name that does not stay inside its directory, for a file or a
	// directory below the root: written out, it would land beside the tree.
	for _, name := range []string{"", ".", "..", "a/b", "/", "a\x00b"} {
		cases = append(cases, sinkCase{fmt.Sprintf("directory named %q", name), func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddDir(DirRecord{ID: 1, Parent: 0, Name: name})
		}}, sinkCase{fmt.Sprintf("file named %q", name), func(s *TreeSink) error {
			if err := s.AddDir(dir(0, -1)); err != nil {
				return err
			}
			return s.AddFile(file(0, 0, 1, 1, name))
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.feed(NewTreeSink(nil)); !errors.Is(err, ErrManifestIntegrity) {
				t.Errorf("malformed stream: got %v, want ErrManifestIntegrity", err)
			}
		})
	}
}

// TestDigestBuilderMatchesCombineDigest: the streaming digest over inline
// content hashing must equal the retained Digest value.
func TestDigestBuilderMatchesCombineDigest(t *testing.T) {
	img := buildTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed, Parallelism: 1}
	want, err := img.Digest(opts)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	// Streaming path: hash each file's content inline as its record passes.
	opts = opts.WithDefaults(img.Spec.Seed)
	baseRNG := stats.NewRNG(opts.Seed).Fork(MaterializeStreamLabel)
	h := sha256.New()
	b := NewDigestBuilder(img.DirCount(), img.FileCount(), img.TotalBytes(), func(f File) (string, error) {
		h.Reset()
		if err := opts.Registry.ForExtension(f.Ext).Generate(h, f.Size, baseRNG.SplitN(uint64(f.ID))); err != nil {
			return "", err
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	})
	if err := img.StreamRecords(b); err != nil {
		t.Fatalf("streaming digest: %v", err)
	}
	got, err := b.Sum()
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	if got != want {
		t.Errorf("streamed digest %s != retained %s", got, want)
	}
}

// TestDigestBuilderRejectsWrongTotals: promised totals are part of the
// digest header, so a short stream must fail loudly instead of producing a
// digest for an image that never streamed.
func TestDigestBuilderRejectsWrongTotals(t *testing.T) {
	img := buildTestImage(t)
	b := NewDigestBuilder(img.DirCount(), img.FileCount()+1, img.TotalBytes(), func(f File) (string, error) {
		return "x", nil
	})
	if err := img.StreamRecords(b); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if _, err := b.Sum(); err == nil {
		t.Error("short stream produced a digest")
	}
}

// TestImageStatsMatchesRetainedHistograms: a streamed accumulator counts
// the files, directories, bytes and deepest file the retained image holds.
func TestImageStatsMatchesRetainedHistograms(t *testing.T) {
	img := buildTestImage(t)
	st := NewImageStats(StatsConfig{SizeMaxExp: 30, DepthBins: 16, CountBins: 24})
	if err := img.StreamRecords(st); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if st.FileCount() != img.FileCount() || st.DirCount() != img.DirCount() || st.TotalBytes() != img.TotalBytes() {
		t.Fatalf("totals diverge: %d/%d/%d vs %d/%d/%d",
			st.FileCount(), st.DirCount(), st.TotalBytes(), img.FileCount(), img.DirCount(), img.TotalBytes())
	}
	if st.MaxFileDepth() != img.MaxFileDepth() {
		t.Errorf("max depth %d != %d", st.MaxFileDepth(), img.MaxFileDepth())
	}
}

// batchTestImage is buildTestImage's tree holding n small files spread
// evenly over its directories, directory-major.
func batchTestImage(t testing.TB, n int) *Image {
	t.Helper()
	img := buildTestImage(t)
	img.Files = nil
	exts := []string{"txt", "jpg", "", "dll", "htm"}
	for i := 0; i < n; i++ {
		dir := i * img.Tree.Len() / n
		img.AddFile(MakeFileName(i, exts[i%len(exts)]), exts[i%len(exts)], int64(i%7)*11, dir, img.Tree.Dirs[dir].Depth+1)
	}
	return img
}

// sinkBatchCounts are the file counts the sink's batching can get wrong: no
// file, one, one short of a batch, a batch, one over, and two and one (a
// batch written after another, and a remainder after both).
var sinkBatchCounts = []int{0, 1, materializeBatch - 1, materializeBatch, materializeBatch + 1, 2*materializeBatch + 1}

// TestMaterializeSinkAtBatchBoundaries: at every batch boundary, streaming
// records to disk leaves the image's directories and, at each file's path,
// the bytes ContentDigests hashes for it, and nothing else; Written counts
// the image's bytes, and the Fold, which takes each batch's digests as it is
// written, sums to the digest CombineDigest makes of ContentDigests.
func TestMaterializeSinkAtBatchBoundaries(t *testing.T) {
	for _, n := range sinkBatchCounts {
		img := batchTestImage(t, n)
		opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed, Parallelism: 4}
		digests, err := img.ContentDigests(opts)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest, err := CombineDigest(img, digests)
		if err != nil {
			t.Fatal(err)
		}
		root, fold := t.TempDir(), NewDigestFold(img.DirCount(), n, img.TotalBytes())
		opts.Fold = fold
		sink := NewMaterializeSink(root, img.Tree, opts)
		if err := img.StreamRecords(sink); err != nil {
			t.Fatalf("n=%d: stream materialize: %v", n, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", n, err)
		}
		if sink.Written() != img.TotalBytes() {
			t.Errorf("n=%d: streamed %d bytes of %d", n, sink.Written(), img.TotalBytes())
		}
		if got, err := fold.Sum(); err != nil || got != wantDigest {
			t.Errorf("n=%d: folded digest %s (%v), ContentDigests combine to %s", n, got, err, wantDigest)
		}
		want := map[string]string{} // path under root: "" for a directory, else the content's hash
		for id := 1; id < img.Tree.Len(); id++ {
			want[img.Tree.Path(id)] = ""
		}
		for _, f := range img.Files {
			want[filePath(img, f)] = digests[f.ID]
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || path == root {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			sum, ok := want[rel]
			delete(want, rel)
			switch {
			case !ok:
				t.Errorf("n=%d: %s is not in the image", n, rel)
			case d.IsDir() != (sum == ""):
				t.Errorf("n=%d: %s: a directory %v, want %v", n, rel, d.IsDir(), sum == "")
			case !d.IsDir():
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
					t.Errorf("n=%d: %s holds other bytes than ContentDigests hashes", n, rel)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > 0 {
			t.Errorf("n=%d: %d entries of the image were not written", n, len(want))
		}
	}
}

// faultAfter wraps a sink: fault runs on every file record the sink has
// taken, and its error ends the stream.
type faultAfter struct {
	RecordSink
	fault func(File) error
}

func (s faultAfter) AddFile(f File) error {
	if err := s.RecordSink.AddFile(f); err != nil {
		return err
	}
	return s.fault(f)
}

// TestMaterializeSinkCancellation: what stops a batch stops the stream. A
// context cancelled once the first batch is on disk, or a write that fails
// in the second, is the error of the AddFile that completes the second batch;
// no file of the third batch is written, and no worker goroutine is left.
// Two batches and one file are the least that has a batch after the failed
// one.
func TestMaterializeSinkCancellation(t *testing.T) {
	const n = 2*materializeBatch + 1
	img := batchTestImage(t, n)
	blocked := img.Files[materializeBatch] // the first file of the second batch
	for _, fault := range []string{"cancel", "write"} {
		baseline := runtime.NumGoroutine()
		root := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sink := NewMaterializeSink(root, img.Tree, MaterializeOptions{
			Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed, Parallelism: 4, Context: ctx,
		})
		err := img.StreamRecords(faultAfter{sink, func(f File) error {
			if f.ID != materializeBatch-1 {
				return nil
			}
			if fault == "cancel" {
				cancel()
				return nil
			}
			// A directory where the file should go: creating it fails.
			return os.MkdirAll(filepath.Join(root, filepath.FromSlash(filePath(img, blocked))), 0o755)
		}})
		if err == nil {
			err = sink.Close()
		}
		if fault == "cancel" && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", fault, err)
		}
		if fault == "write" && (err == nil || !strings.Contains(err.Error(), blocked.Name)) {
			t.Fatalf("%s: got %v, want the failed creation of %s", fault, err, blocked.Name)
		}
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(filePath(img, img.Files[0])))); err != nil {
			t.Errorf("%s: the first batch was not written: %v", fault, err)
		}
		last := img.Files[n-1]
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(filePath(img, last)))); err == nil {
			t.Errorf("%s: %s of the last batch was written after the stream failed", fault, last.Name)
		}
		if fault == "cancel" {
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(filePath(img, blocked)))); err == nil {
				t.Errorf("%s: %s was written after the cancellation", fault, blocked.Name)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the sink was created", fault, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
