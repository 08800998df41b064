package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// digestTestImage builds a small image over a generative tree with files
// spread across several directories and extensions.
func digestTestImage(t *testing.T) *Image {
	t.Helper()
	rng := stats.NewRNG(11)
	tree := namespace.GenerateTree(rng, 25, namespace.ShapeGenerative)
	img := New(tree)
	img.Spec.Seed = 11
	exts := []string{"txt", "jpg", "dll", "", "html"}
	for i := 0; i < 120; i++ {
		dirID := i * tree.Len() / 120
		size := int64(i * 97 % 5000)
		ext := exts[i%len(exts)]
		name := MakeFileName(i, ext)
		img.AddFile(name, ext, size, dirID, tree.Dirs[dirID].Depth+1)
		tree.Dirs[dirID].FileCount++
		tree.Dirs[dirID].Bytes += size
	}
	return img
}

// TestContentDigestsMatchMaterializedBytes asserts digests computed without
// disk equal the SHA-256 of the actually materialized files.
func TestContentDigestsMatchMaterializedBytes(t *testing.T) {
	img := digestTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: 11}
	digests, err := img.ContentDigests(opts)
	if err != nil {
		t.Fatalf("ContentDigests: %v", err)
	}
	root := t.TempDir()
	if _, err := img.Materialize(root, opts); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for _, f := range img.Files {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(filePath(img, f))))
		if err != nil {
			t.Fatalf("reading %s: %v", filePath(img, f), err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != digests[f.ID] {
			t.Fatalf("file %d: on-disk hash %s != computed digest %s", f.ID, got, digests[f.ID])
		}
	}
}

// TestMaterializeShardCollectsDigests asserts the digests the VFS writer
// reports to OnDigest while writing equal the oracle's at every
// parallelism, file for file in the order given, and that the written byte
// count matches.
func TestMaterializeShardCollectsDigests(t *testing.T) {
	img := digestTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: 11}
	want, err := img.ContentDigests(opts)
	if err != nil {
		t.Fatalf("ContentDigests: %v", err)
	}
	dirs := make([]int, img.Tree.Len())
	for i := range dirs {
		dirs[i] = i
	}
	for _, j := range []int{1, 4} {
		var got []string
		opts.Parallelism = j
		opts.OnDigest = func(f File, sum string) {
			if f != img.Files[len(got)] {
				t.Fatalf("j=%d: file %d reported in the place of file %d", j, f.ID, len(got))
			}
			got = append(got, sum)
		}
		n, err := MaterializeShardRecords(t.TempDir(), img.Tree, dirs, img.Files, opts)
		if err != nil {
			t.Fatalf("j=%d: MaterializeShardRecords: %v", j, err)
		}
		if n != img.TotalBytes() {
			t.Fatalf("j=%d: wrote %d bytes, want %d", j, n, img.TotalBytes())
		}
		if len(got) != len(want) {
			t.Fatalf("j=%d: %d digests reported for %d files", j, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("j=%d file %d: collected digest %s != computed %s", j, i, got[i], want[i])
			}
		}
	}
}

// TestDigestParallelismInvariance asserts the image digest is identical at
// every parallelism level.
func TestDigestParallelismInvariance(t *testing.T) {
	img := digestTestImage(t)
	var ref string
	for _, p := range []int{1, 2, 8} {
		d, err := img.Digest(MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: 11, Parallelism: p})
		if err != nil {
			t.Fatalf("Digest(parallelism=%d): %v", p, err)
		}
		if ref == "" {
			ref = d
		} else if d != ref {
			t.Fatalf("digest differs at parallelism %d: %s vs %s", p, d, ref)
		}
	}
}

// TestHashTreeDetectsDifferences asserts HashTree is stable for identical
// trees and sensitive to any content or structure change.
func TestHashTreeDetectsDifferences(t *testing.T) {
	img := digestTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: 11}
	a, b := t.TempDir(), t.TempDir()
	if _, err := img.Materialize(a, opts); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if _, err := img.Materialize(b, opts); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	ha, err := HashTree(a)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	hb, err := HashTree(b)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	if ha != hb {
		t.Fatalf("identical trees hash differently: %s vs %s", ha, hb)
	}
	// Flip one byte in one file: the hash must change.
	var victim string
	for _, f := range img.Files {
		if f.Size > 0 {
			victim = filepath.Join(b, filepath.FromSlash(filePath(img, f)))
			break
		}
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("reading victim: %v", err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatalf("writing victim: %v", err)
	}
	hb2, err := HashTree(b)
	if err != nil {
		t.Fatalf("HashTree after tamper: %v", err)
	}
	if hb2 == ha {
		t.Fatalf("tampered tree hashes identically")
	}
}

// TestCombineDigestRejectsBadInput covers the error paths merge relies on.
func TestCombineDigestRejectsBadInput(t *testing.T) {
	img := digestTestImage(t)
	if _, err := CombineDigest(img, make([]string, 3)); err == nil {
		t.Error("CombineDigest should reject a short digest slice")
	}
	digests := make([]string, len(img.Files))
	if _, err := CombineDigest(img, digests); err == nil {
		t.Error("CombineDigest should reject empty digests")
	}
}
