package fsimage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/stats"
)

// TestStreamRecordsRoundTrip: replaying an image through the retained sink
// must reproduce it record for record (records, spec, tree counters).
func TestStreamRecordsRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	sink := NewImageSink(img.Spec)
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	got, err := sink.Image()
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
	cases := []struct {
		name string
		feed func(s *TreeSink) error
	}{
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.feed(NewTreeSink(nil)); err == nil {
				t.Error("malformed stream accepted")
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
	opts = opts.withDefaults(img.Spec.Seed)
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

// TestImageStatsMatchesRetainedHistograms: the retained histogram methods
// are wrappers over the streaming accumulator; cross-check a streamed
// accumulator against them anyway, so a future divergence of either path
// fails here.
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
	compare := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d bins vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s bin %d: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
	compare("files by size", st.FilesBySize().Counts, img.FilesBySizeHistogram(30).Counts)
	compare("bytes by size", st.BytesBySize().Counts, img.BytesBySizeHistogram(30).Counts)
	compare("files by depth", st.FilesByDepth().Counts, img.FilesByDepthHistogram(16).Counts)
	compare("dirs by depth", st.DirsByDepth().Counts, img.DirsByDepthHistogram(16).Counts)
	compare("dirs by subdir", st.DirsBySubdir().Counts, img.DirsBySubdirHistogram(24).Counts)
	compare("dirs by file count", st.DirsByFileCount().Counts, img.DirsByFileCountHistogram(24).Counts)
	compare("mean bytes by depth", st.MeanBytesByDepth(), img.MeanBytesByDepth(16))

	wantTop := img.TopExtensions(3)
	gotTop := st.TopExtensions(3)
	if len(wantTop) != len(gotTop) {
		t.Fatalf("top extensions: %d vs %d entries", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if wantTop[i] != gotTop[i] {
			t.Errorf("top extension %d: %+v vs %+v", i, gotTop[i], wantTop[i])
		}
	}
	compare("extension fractions", st.ExtensionFractions([]string{"txt", "null", "jpg"}),
		img.ExtensionFractions([]string{"txt", "null", "jpg"}))
}

// batchTestImage is buildTestImage's tree holding n small files, dealt
// round the directories so every batch of the sink touches all of them.
func batchTestImage(t testing.TB, n int) *Image {
	t.Helper()
	img := buildTestImage(t)
	img.Files = nil
	exts := []string{"txt", "jpg", "", "dll", "htm"}
	for i := 0; i < n; i++ {
		dir := i % img.Tree.Len()
		img.AddFile(MakeFileName(i, exts[i%len(exts)]), exts[i%len(exts)], int64(i%7)*11, dir, img.Tree.Dirs[dir].Depth+1)
	}
	return img
}

// sinkBatchCounts are the file counts the sink's batching can get wrong: no
// file, one, one short of a batch, a batch, one over, and three and one.
var sinkBatchCounts = []int{0, 1, materializeBatch - 1, materializeBatch, materializeBatch + 1, 3*materializeBatch + 1}

// TestMaterializeSinkMatchesMaterialize: at every batch boundary and at
// Parallelism 1 and 4, streaming records to disk writes the byte-identical
// tree the retained Materialize writes, and hands the fold the per-file
// digests Materialize's Digests table holds, in ID order.
func TestMaterializeSinkMatchesMaterialize(t *testing.T) {
	for _, n := range sinkBatchCounts {
		img := batchTestImage(t, n)
		opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed}
		retained := opts
		retained.Digests = make([]string, n)
		retainedRoot := t.TempDir()
		wantWritten, err := img.Materialize(retainedRoot, retained)
		if err != nil {
			t.Fatalf("n=%d: Materialize: %v", n, err)
		}
		wantHash, err := HashTree(retainedRoot)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest, err := CombineDigest(img, retained.Digests)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			opts.Parallelism = par
			streamRoot := t.TempDir()
			fold := NewDigestBuilder(img.DirCount(), n, img.TotalBytes(), nil)
			sink := NewMaterializeSink(streamRoot, opts, fold)
			if err := img.StreamRecords(MultiSink(sink, fold)); err != nil {
				t.Fatalf("n=%d P%d: stream materialize: %v", n, par, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("n=%d P%d: Close: %v", n, par, err)
			}
			if sink.Written() != wantWritten {
				t.Errorf("n=%d P%d: streamed %d bytes, retained wrote %d", n, par, sink.Written(), wantWritten)
			}
			if gotHash, err := HashTree(streamRoot); err != nil || gotHash != wantHash {
				t.Errorf("n=%d P%d: streamed tree hash %s (%v) != retained %s", n, par, gotHash, err, wantHash)
			}
			if got, err := fold.Sum(); err != nil || got != wantDigest {
				t.Errorf("n=%d P%d: folded digest %s (%v), Materialize's table combines to %s", n, par, got, err, wantDigest)
			}
		}
	}
}

// TestMultiSinkFansOut: one stream feeding several sinks sees every record
// in each, and errors short-circuit.
func TestMultiSinkFansOut(t *testing.T) {
	img := buildTestImage(t)
	st := NewImageStats(StatsConfig{})
	retained := NewImageSink(img.Spec)
	if err := img.StreamRecords(MultiSink(st, retained)); err != nil {
		t.Fatalf("MultiSink stream: %v", err)
	}
	if st.FileCount() != img.FileCount() {
		t.Errorf("stats sink saw %d files, want %d", st.FileCount(), img.FileCount())
	}
	if _, err := retained.Image(); err != nil {
		t.Errorf("retained sink: %v", err)
	}
	boom := fmt.Errorf("boom")
	failing := NewTreeSink(func(File) error { return boom })
	err := img.StreamRecords(MultiSink(failing, NewImageSink(img.Spec)))
	if err == nil {
		t.Error("sink error did not abort the stream")
	}
}

// TestMaterializeSinkCancellation: what stops a batch stops the stream. A
// context cancelled once the first batch is on disk, or a write that fails
// in the second, is the error of the AddFile that completes the second batch
// (of Close, when the stream ends inside it); no file of a later batch is
// written, and no worker goroutine is left.
func TestMaterializeSinkCancellation(t *testing.T) {
	for _, n := range sinkBatchCounts[4:] {
		img := batchTestImage(t, n)
		blocked := img.Files[materializeBatch] // the first file of the second batch
		for _, par := range []int{1, 4} {
			for _, fault := range []string{"cancel", "write"} {
				label := fmt.Sprintf("n=%d P%d %s", n, par, fault)
				baseline := runtime.NumGoroutine()
				root := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := NewMaterializeSink(root, MaterializeOptions{
					Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed, Parallelism: par, Context: ctx,
				}, nil)
				after := NewTreeSink(func(f File) error {
					if f.ID != materializeBatch-1 {
						return nil
					}
					if fault == "cancel" {
						cancel()
						return nil
					}
					// A directory where the file should go: creating it fails.
					return os.MkdirAll(filepath.Join(root, filepath.FromSlash(img.FilePath(blocked))), 0o755)
				})
				err := img.StreamRecords(MultiSink(sink, after))
				if err == nil {
					err = sink.Close()
				}
				if fault == "cancel" && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: got %v, want context.Canceled", label, err)
				}
				if fault == "write" && (err == nil || !strings.Contains(err.Error(), blocked.Name)) {
					t.Fatalf("%s: got %v, want the failed creation of %s", label, err, blocked.Name)
				}
				if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(img.FilePath(img.Files[0])))); err != nil {
					t.Errorf("%s: the first batch was not written: %v", label, err)
				}
				if last := img.Files[n-1]; n > 2*materializeBatch {
					if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(img.FilePath(last)))); err == nil {
						t.Errorf("%s: %s of the last batch was written after the stream failed", label, last.Name)
					}
				}
				if fault == "cancel" {
					if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(img.FilePath(blocked)))); err == nil {
						t.Errorf("%s: %s was written after the cancellation", label, blocked.Name)
					}
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: %d goroutines, %d before the sink was created", label, runtime.NumGoroutine(), baseline)
					}
				}
			}
		}
	}
}
