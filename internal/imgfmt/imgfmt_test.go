package imgfmt_test

import (
	"archive/tar"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// sinkTestImage builds a deterministic image exercising the sink edge
// cases: empty files, empty directories, multi-block files (>128 KiB),
// extension-less names, and files in the root directory.
func sinkTestImage(t *testing.T, seed int64) *fsimage.Image {
	t.Helper()
	rng := stats.NewRNG(seed)
	tree := namespace.GenerateTree(rng, 30, namespace.ShapeGenerative)
	img := fsimage.New(tree)
	img.Spec.Seed = seed
	exts := []string{"txt", "jpg", "dll", "", "html", "pdf"}
	for i := 0; i < 150; i++ {
		dirID := i * tree.Len() / 150
		size := int64(i * 131 % 9000)
		switch {
		case i%17 == 0:
			size = 0
		case i == 40:
			size = 300_000 // spans three squashfs data blocks
		}
		ext := exts[i%len(exts)]
		img.AddFile(fsimage.MakeFileName(i, ext), ext, size, dirID, tree.Dirs[dirID].Depth+1)
		tree.Dirs[dirID].FileCount++
		tree.Dirs[dirID].Bytes += size
	}
	return img
}

// canonicalDigest is img's canonical digest, which the tree a reader
// extracts from any of its images must walk to.
func canonicalDigest(t *testing.T, img *fsimage.Image) string {
	t.Helper()
	digest, err := img.Digest(fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: img.Spec.Seed})
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return digest
}

func writeTar(t *testing.T, img *fsimage.Image, opts imgfmt.Options) ([]byte, []string) {
	t.Helper()
	digests := make([]string, len(img.Files))
	opts.Seed = img.Spec.Seed
	opts.OnDigest = func(f fsimage.File, sum string) { digests[f.ID] = sum }
	var buf bytes.Buffer
	sink := imgfmt.NewTarSink(&buf, opts)
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), digests
}

// extractTar unpacks a tar stream with the stdlib reader.
func extractTar(t *testing.T, data []byte) string {
	t.Helper()
	dest := t.TempDir()
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("tar.Next: %v", err)
		}
		path := filepath.Join(dest, filepath.FromSlash(hdr.Name))
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, os.FileMode(hdr.Mode)); err != nil {
				t.Fatalf("mkdir %s: %v", path, err)
			}
		case tar.TypeReg:
			out, err := os.Create(path)
			if err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			if _, err := io.Copy(out, tr); err != nil {
				t.Fatalf("copy %s: %v", path, err)
			}
			if err := out.Close(); err != nil {
				t.Fatalf("close %s: %v", path, err)
			}
		default:
			t.Fatalf("unexpected tar entry type %d for %q", hdr.Typeflag, hdr.Name)
		}
	}
	return dest
}

func TestTarSinkRoundTrip(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		img := sinkTestImage(t, seed)
		wantDigest := canonicalDigest(t, img)

		data, digests := writeTar(t, img, imgfmt.Options{})
		gotDigest, err := fsimage.CombineDigest(img, digests)
		if err != nil {
			t.Fatalf("seed %d: CombineDigest: %v", seed, err)
		}
		if gotDigest != wantDigest {
			t.Errorf("seed %d: tar content digest %s, canonical digest %s", seed, gotDigest, wantDigest)
		}
		if got, err := fsimage.HashTree(extractTar(t, data)); err != nil || got != wantDigest {
			t.Errorf("seed %d: extracted tar tree walks to %s (%v), canonical digest %s", seed, got, err, wantDigest)
		}
	}
}

// sharded is an image split into shards the way a plan splits one: by cut
// roots — shard 0 keeps the image root, shards 1..k-1 take one top-level
// subtree each, while there are some — and the partition
// namespace.PartitionFromRoots rebuilds from them, which says what each
// shard owns.
type sharded struct {
	img   *fsimage.Image
	part  *namespace.Partition
	files [][]fsimage.File // by shard, in ID order
}

func shardImage(tb testing.TB, img *fsimage.Image, k int) *sharded {
	tb.Helper()
	roots := make([][]int, k)
	next := 1
	for id := 1; id < img.Tree.Len() && next < k; id++ {
		if img.Tree.Dirs[id].Parent == 0 {
			roots[next] = []int{id}
			next++
		}
	}
	part, err := namespace.PartitionFromRoots(img.Tree, roots)
	if err != nil {
		tb.Fatalf("PartitionFromRoots: %v", err)
	}
	s := &sharded{img: img, part: part, files: make([][]fsimage.File, k)}
	for _, f := range img.Files {
		shard := part.ShardOf(f.DirID)
		s.files[shard] = append(s.files[shard], f)
	}
	return s
}

// segment writes shard's tar segment.
func (s *sharded) segment(tb testing.TB, shard int, opts imgfmt.Options) []byte {
	tb.Helper()
	var seg bytes.Buffer
	if _, err := imgfmt.WriteSegment(&seg, s.img.Tree, s.part.Shards[shard], s.files[shard], opts); err != nil {
		tb.Fatalf("WriteSegment shard %d: %v", shard, err)
	}
	return seg.Bytes()
}

// stitch merges segments, one per shard, into w: the walk a plan's record
// check makes, every directory and then every file of the image, each with
// the shard the partition gives it.
func (s *sharded) stitch(w io.Writer, segments [][]byte, opts imgfmt.Options) error {
	readers := make([]io.Reader, len(segments))
	for i, seg := range segments {
		readers[i] = bytes.NewReader(seg)
	}
	st := imgfmt.NewStitcher(w, s.img.Tree, readers, opts)
	for id := range s.img.Tree.Len() {
		if err := st.AddDir(id, s.part.ShardOf(id)); err != nil {
			return err
		}
	}
	for _, f := range s.img.Files {
		if err := st.AddFile(f, s.part.ShardOf(f.DirID)); err != nil {
			return err
		}
	}
	return st.Close()
}

func TestTarStitchByteIdentical(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		img := sinkTestImage(t, seed)
		want, _ := writeTar(t, img, imgfmt.Options{})
		for _, k := range []int{1, 2, 4} {
			sh := shardImage(t, img, k)
			opts := imgfmt.Options{Seed: seed}
			segments := make([][]byte, k)
			for s := range segments {
				segments[s] = sh.segment(t, s, opts)
			}
			var out bytes.Buffer
			if err := sh.stitch(&out, segments, opts); err != nil {
				t.Fatalf("seed %d K=%d: stitch: %v", seed, k, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("seed %d: stitched K=%d tar differs from monolithic (%d vs %d bytes)", seed, k, out.Len(), len(want))
			}
		}
	}
}

func TestStitcherRejectsForeignSegment(t *testing.T) {
	sh := shardImage(t, sinkTestImage(t, 11), 2)
	other := shardImage(t, sinkTestImage(t, 42), 2)
	opts := imgfmt.Options{Seed: 42}
	segments := [][]byte{other.segment(t, 0, opts), other.segment(t, 1, opts)}
	if err := sh.stitch(io.Discard, segments, opts); !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Fatalf("stitching foreign segments: got %v, want ErrManifestIntegrity", err)
	}
}

func TestTarSinkCancellation(t *testing.T) {
	img := sinkTestImage(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := imgfmt.NewTarSink(io.Discard, imgfmt.Options{Seed: 11, Context: ctx})
	err := img.StreamRecords(sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled tar stream: got %v, want context.Canceled", err)
	}
}

func TestSquashfsRoundTrip(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		img := sinkTestImage(t, seed)
		wantDigest := canonicalDigest(t, img)

		imgPath := filepath.Join(t.TempDir(), "image.squashfs")
		out, err := os.Create(imgPath)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		digests := make([]string, len(img.Files))
		sink, err := imgfmt.NewSquashfsSink(out, imgfmt.Options{
			Seed:     seed,
			OnDigest: func(f fsimage.File, sum string) { digests[f.ID] = sum },
		})
		if err != nil {
			t.Fatalf("NewSquashfsSink: %v", err)
		}
		if err := img.StreamRecords(sink); err != nil {
			t.Fatalf("seed %d: StreamRecords: %v", seed, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		if err := out.Close(); err != nil {
			t.Fatalf("close image: %v", err)
		}
		gotDigest, err := fsimage.CombineDigest(img, digests)
		if err != nil {
			t.Fatalf("CombineDigest: %v", err)
		}
		if gotDigest != wantDigest {
			t.Errorf("seed %d: squashfs content digest %s, canonical digest %s", seed, gotDigest, wantDigest)
		}

		in, err := os.Open(imgPath)
		if err != nil {
			t.Fatalf("open image: %v", err)
		}
		defer in.Close()
		dest := t.TempDir()
		if err := imgfmt.ExtractSquashfs(in, dest); err != nil {
			t.Fatalf("seed %d: ExtractSquashfs: %v", seed, err)
		}
		if got, err := fsimage.HashTree(dest); err != nil || got != wantDigest {
			t.Errorf("seed %d: extracted squashfs tree walks to %s (%v), canonical digest %s", seed, got, err, wantDigest)
		}
		st, err := os.Stat(imgPath)
		if err != nil {
			t.Fatalf("stat image: %v", err)
		}
		if st.Size()%4096 != 0 {
			t.Errorf("squashfs image size %d is not 4096-aligned", st.Size())
		}
	}
}

func TestTarSinkDeterministicAcrossRuns(t *testing.T) {
	img := sinkTestImage(t, 11)
	a, _ := writeTar(t, img, imgfmt.Options{})
	b, _ := writeTar(t, img, imgfmt.Options{})
	if !bytes.Equal(a, b) {
		t.Fatal("two tar serializations of the same image differ")
	}
}
