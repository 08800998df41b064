package imgfmt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// TestGoldenImageBytes pins the bytes of every format this package writes,
// on two small fixed images at Parallelism 1: the tar stream, three shard
// segments and their stitched archive, the squashfs image, and the
// canonical image digest. The values were taken from the writers as they
// stood before the worker-side framing of PR 16 (archive/tar wrote every
// header then), and taken again when the canonical file order became
// directory-major (plan format 5), which both images now follow; the
// digests alone were taken again at digest version 2, which moved no image
// byte. A change
// that moves one of them is a format change: it needs a deliberate version
// bump and new pins, never a quiet update here.
func TestGoldenImageBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *fsimage.Image
		want map[string]string
	}{
		{"sinkTestImage(11)", sinkTestImage(t, 11), map[string]string{
			"tar":      "7cd57d28acf74961f85874d15fb96eb1cadf3994f00ebe086751e924cd79debc",
			"segment0": "43d34f57e98b6416b497e8115fede914a40cec6f84fcba678d600fbb80ee8f8f",
			"segment1": "e2e7f504b0e798b740eb5df5f05156469d45652da841656cfb87803780460293",
			"segment2": "6a2ec23957fcb38068cf39e767f4481039bf8a9649f7359ba8fe996d6fa4fda2",
			"stitched": "7cd57d28acf74961f85874d15fb96eb1cadf3994f00ebe086751e924cd79debc",
			"squashfs": "b1dab352a332b17754e367210298bf118cf3026d8f05ec6eb4f563072019139d",
			"digest":   "a3c90f747b06e495cc602da73dab8afa6a491a5920e78b47390eede89c0f3bdb",
		}},
		{"longNameImage", longNameImage(), map[string]string{
			"tar":      "1d413683fe3a60243e66d7f1cba1f599d24e31b42b913c64fc7fb4f5785da595",
			"segment0": "3bfaa6a23a09192226417dfa9265d0e51a3f98019bbcb3e36ab09b5f35c58070",
			"segment1": "42586c7f9af16c51ccdb06049321154a47ad87db0e77bed0835d17543be04217",
			"segment2": "8f0e99c1206b509249fe963badf2eb3a0c44025fa7d8014a59a102d72bff1516",
			"stitched": "1d413683fe3a60243e66d7f1cba1f599d24e31b42b913c64fc7fb4f5785da595",
			"squashfs": "44885ddd92b367a03778a7d43b7b16b75d1164c698d8102bb4e7166cca561a1e",
			"digest":   "85ca471aa6d1cc13b8807d0247481722b9d07bd5cacd543551afb82754635d3d",
		}},
	} {
		got := goldenSums(t, tc.img)
		if got["stitched"] != got["tar"] {
			t.Errorf("%s: stitched archive %s differs from the monolithic tar %s", tc.name, got["stitched"], got["tar"])
		}
		for _, key := range []string{"tar", "segment0", "segment1", "segment2", "stitched", "squashfs", "digest"} {
			if got[key] != tc.want[key] {
				t.Errorf("%s: %s is %s, pinned %s", tc.name, key, got[key], tc.want[key])
			}
		}
	}
}

// TestSquashfsListingSizes holds the listing size Close computes from name
// lengths and header runs to the listing it renders, for every directory
// of the golden images and of edgeImage, whose 1,200 files break listings
// at metadata block edges.
func TestSquashfsListingSizes(t *testing.T) {
	for name, img := range map[string]*fsimage.Image{
		"sinkTestImage(11)": sinkTestImage(t, 11), "longNameImage": longNameImage(), "edgeImage": edgeImage(),
	} {
		out, err := os.Create(filepath.Join(t.TempDir(), "image.squashfs"))
		if err != nil {
			t.Fatal(err)
		}
		sq, err := imgfmt.NewSquashfsSink(out, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := img.StreamRecords(sq); err != nil {
			t.Fatalf("%s: StreamRecords: %v", name, err)
		}
		computed, rendered, err := imgfmt.ListingSizes(sq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(computed) != img.DirCount() || !slices.Equal(computed, rendered) {
			t.Errorf("%s: computed listing sizes %v, rendered %v", name, computed, rendered)
		}
		if err := sq.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		out.Close()
	}
}

// goldenSums writes img through every writer at Parallelism 1 and returns
// the SHA-256 of each output, plus the canonical digest as folded by the
// tar sink.
func goldenSums(t *testing.T, img *fsimage.Image) map[string]string {
	t.Helper()
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	got := make(map[string]string)
	opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 1}

	foldOpts := opts
	fold := fsimage.NewDigestFold(img.DirCount(), img.FileCount(), img.TotalBytes())
	foldOpts.Fold = fold
	var tarBuf bytes.Buffer
	sink := imgfmt.NewTarSink(&tarBuf, foldOpts)
	if err := img.StreamRecords(sink); err != nil {
		t.Fatalf("tar: StreamRecords: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("tar: Close: %v", err)
	}
	got["tar"] = sum(tarBuf.Bytes())
	digest, err := fold.Sum()
	if err != nil {
		t.Fatalf("tar: folded digest: %v", err)
	}
	got["digest"] = digest

	sh := shardImage(t, img, 3)
	segments := make([][]byte, 3)
	for s := range segments {
		segments[s] = sh.segment(t, s, opts)
		got[fmt.Sprintf("segment%d", s)] = sum(segments[s])
	}
	var stitched bytes.Buffer
	if err := sh.stitch(&stitched, segments, opts); err != nil {
		t.Fatalf("stitch: %v", err)
	}
	got["stitched"] = sum(stitched.Bytes())

	path := filepath.Join(t.TempDir(), "image.squashfs")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	sq, err := imgfmt.NewSquashfsSink(out, opts)
	if err != nil {
		t.Fatalf("NewSquashfsSink: %v", err)
	}
	if err := img.StreamRecords(sq); err != nil {
		t.Fatalf("squashfs: StreamRecords: %v", err)
	}
	if err := sq.Close(); err != nil {
		t.Fatalf("squashfs: Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got["squashfs"] = sum(data)
	return got
}
