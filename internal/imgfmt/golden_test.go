package imgfmt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// TestGoldenImageBytes pins the bytes of every format this package writes,
// on two small fixed images at Parallelism 1: the tar stream, three shard
// segments and their stitched archive, the squashfs image, and the
// canonical image digest. The values were taken from the writers as they
// stood before the worker-side framing of PR 16 (archive/tar wrote every
// header then). A change that moves one of them is a format change: it
// needs a deliberate version bump and new pins, never a quiet update here.
func TestGoldenImageBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *fsimage.Image
		want map[string]string
	}{
		{"sinkTestImage(11)", sinkTestImage(t, 11), map[string]string{
			"tar":      "27e0cd397aef2dd70af4b80f7cb863bc3e7da82edc670ba81082ba844db5081e",
			"segment0": "041d4d5b3aebd45dda63a8486ad756717daabf34676bdf70268af9d2543ea433",
			"segment1": "82c63f3c1b278554f785c844da2794c8367dae93873e717aa99a862074ca73f2",
			"segment2": "b16000556c0d691e2f9196cd16f1c77867db0ebea05608f72251e2ce9cd5faf9",
			"stitched": "27e0cd397aef2dd70af4b80f7cb863bc3e7da82edc670ba81082ba844db5081e",
			"squashfs": "0663ce529e6c91658525ddbdd9cd013b32f5c40c521545e040eba9901d3dddc5",
			"digest":   "c7529d1da5d13eb30f72a1055bed59273f85904636ff76d8cbbc720e6588e5ca",
		}},
		{"longNameImage", longNameImage(), map[string]string{
			"tar":      "17b70a8b1f7c7d3f97f9ed186e3dbdc5a173623b92b78b110d2de5cb426ca617",
			"segment0": "3bfaa6a23a09192226417dfa9265d0e51a3f98019bbcb3e36ab09b5f35c58070",
			"segment1": "b228458aa9e84cd92ae45da076a13cfdeeac6f4b51ba35f3e227a5d1438dbfde",
			"segment2": "7b3285199d95e35548d24cc774f101cc705e643d14f99064e280484040384f2e",
			"stitched": "17b70a8b1f7c7d3f97f9ed186e3dbdc5a173623b92b78b110d2de5cb426ca617",
			"squashfs": "a62e92f985f44bb02e2222f6f92fb7bc8853cd2eb54a628242e2eae2076f5baa",
			"digest":   "4610e02ded8a4207078eef23cf07e116ef31061ae4fd9036db899d01c441058c",
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

// goldenSums writes img through every writer at Parallelism 1 and returns
// the SHA-256 of each output, plus the canonical digest as folded by the
// tar sink.
func goldenSums(t *testing.T, img *fsimage.Image) map[string]string {
	t.Helper()
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	got := make(map[string]string)
	opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 1}

	foldOpts := opts
	fold := imgfmt.FoldDigest(&foldOpts, img.DirCount(), img.FileCount(), img.TotalBytes())
	var tarBuf bytes.Buffer
	sink := imgfmt.NewTarSink(&tarBuf, foldOpts)
	if err := img.StreamRecords(fsimage.MultiSink(sink, fold)); err != nil {
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

	const shards = 3
	roots, dirs, files := shardImage(img, shards)
	segments := make([]io.Reader, shards)
	for s := 0; s < shards; s++ {
		var seg bytes.Buffer
		if _, err := imgfmt.WriteSegment(&seg, img.Tree, dirs[s], files[s], opts); err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		got[fmt.Sprintf("segment%d", s)] = sum(seg.Bytes())
		segments[s] = bytes.NewReader(seg.Bytes())
	}
	var stitched bytes.Buffer
	st, err := imgfmt.NewStitcher(&stitched, segments, roots, opts)
	if err != nil {
		t.Fatalf("NewStitcher: %v", err)
	}
	if err := img.StreamRecords(st); err != nil {
		t.Fatalf("stitch: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stitch: Close: %v", err)
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
