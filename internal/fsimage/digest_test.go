package fsimage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// TestMaterializeSinkCollectsDigests asserts the digests the VFS writer
// reports to OnDigest while writing equal the oracle's at every
// parallelism, file for file in the order given, and that the written byte
// count matches.
func TestMaterializeSinkCollectsDigests(t *testing.T) {
	img := digestTestImage(t)
	opts := MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: 11}
	want, err := img.ContentDigests(opts)
	if err != nil {
		t.Fatalf("ContentDigests: %v", err)
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
		sink := NewMaterializeSink(t.TempDir(), img.Tree, opts)
		err := img.StreamRecords(sink)
		if err == nil {
			err = sink.Close()
		}
		if err != nil {
			t.Fatalf("j=%d: MaterializeSink: %v", j, err)
		}
		if n := sink.Written(); n != img.TotalBytes() {
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

// TestHashTreeDetectsDifferences asserts HashTree walks a materialized
// image to the image's digest, is stable for identical trees and is
// sensitive to any content or structure change.
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
	if want, err := img.Digest(opts); err != nil || ha != want {
		t.Fatalf("the materialized tree walks to %s, the image's digest is %s (%v)", ha, want, err)
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
	// An empty directory is part of the image too.
	if err := os.Mkdir(filepath.Join(a, "extra"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got, err := HashTree(a); err != nil || got == ha {
		t.Fatalf("a tree with one more directory walks to %s (%v), as the image does", got, err)
	}
}

// TestHashTreeRefusesSymlinks: a symlink in the tree is refused before any
// file is opened, wherever it points, rather than hashed as the file it
// names.
func TestHashTreeRefusesSymlinks(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "real"), []byte("bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{filepath.Join(root, "real"), root, filepath.Join(root, "nothing")} {
		link := filepath.Join(root, "link")
		if err := os.Symlink(target, link); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
		if _, err := HashTree(root); !errors.Is(err, ErrManifestIntegrity) {
			t.Errorf("a symlink to %s: got %v, want ErrManifestIntegrity", target, err)
		}
		if err := os.Remove(link); err != nil {
			t.Fatal(err)
		}
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

// oracleDigest is the canonical digest (DigestVersion) of img by its
// definition, directory by directory from the root down, over sums (hex, by
// file ID). It fails where the definition does: a directory whose files'
// names do not ascend in ID order, or that holds two directories of one
// name.
func oracleDigest(img *Image, sums []string) (string, error) {
	var dirHash func(d int) ([]byte, error)
	dirHash = func(d int) ([]byte, error) {
		files := sha256.New()
		last := ""
		for i, f := range img.Files {
			if f.DirID != d {
				continue
			}
			if i > 0 && img.Files[i-1].DirID == d && f.Name <= last {
				return nil, fmt.Errorf("directory %d: %q after %q", d, f.Name, last)
			}
			last = f.Name
			raw, err := hex.DecodeString(sums[f.ID])
			if err != nil {
				return nil, err
			}
			var size [8]byte
			binary.BigEndian.PutUint64(size[:], uint64(f.Size))
			files.Write(append(append(append([]byte(f.Name), 0), size[:]...), raw...))
		}
		var kids []int
		for id := 1; id < img.Tree.Len(); id++ {
			if img.Tree.Dirs[id].Parent == d {
				kids = append(kids, id)
			}
		}
		sort.Slice(kids, func(i, j int) bool { return img.Tree.Dirs[kids[i]].Name < img.Tree.Dirs[kids[j]].Name })
		h := sha256.New()
		h.Write(files.Sum(nil))
		for i, k := range kids {
			name := img.Tree.Dirs[k].Name
			if i > 0 && name == img.Tree.Dirs[kids[i-1]].Name {
				return nil, fmt.Errorf("directory %d: two directories named %q", d, name)
			}
			sub, err := dirHash(k)
			if err != nil {
				return nil, err
			}
			h.Write(append(append([]byte(name), 0), sub...))
		}
		return h.Sum(nil), nil
	}
	root, err := dirHash(0)
	if err != nil {
		return "", err
	}
	top := sha256.New()
	fmt.Fprintf(top, "%s\ndirs:%d files:%d bytes:%d\n", DigestVersion, img.DirCount(), img.FileCount(), img.TotalBytes())
	top.Write(root)
	return hex.EncodeToString(top.Sum(nil)), nil
}

// fuzzImage builds a canonical image from data: up to 15 directories under
// random parents and up to 63 files, directory-major, with names drawn from
// a small alphabet so that siblings collide and files come out of name
// order; each file's content hash is the SHA-256 of its ID. It returns the
// image, the content hashes, and what is left of data.
func fuzzImage(data []byte) (*Image, []string, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	name := func() string {
		const alphabet = "ab~é" // é sorts after every ASCII byte
		n := []byte{}
		for k := 1 + next()%3; k > 0; k-- {
			i := next() % 4
			n = append(n, alphabet[i])
			if i == 3 {
				n = append(n, alphabet[4])
			}
		}
		return string(n)
	}
	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	for i := next() % 16; i > 0; i-- {
		id := tree.AddDir(next() % tree.Len())
		tree.Dirs[id].Name = name()
	}
	img := New(tree)
	dir := 0
	for i := next() % 64; i > 0; i-- {
		dir = min(dir+next()%3/2, tree.Len()-1)
		size := int64(next() << 8)
		img.AddFile(name(), "", size, dir, tree.Dirs[dir].Depth+1)
		tree.Dirs[dir].FileCount++
		tree.Dirs[dir].Bytes += size
	}
	sums := make([]string, len(img.Files))
	for i := range sums {
		sum := sha256.Sum256([]byte{byte(i)})
		sums[i] = hex.EncodeToString(sum[:])
	}
	return img, sums, data
}

// FuzzDigestFold holds the fold to oracleDigest on arbitrary images, fed
// file by file (CombineDigest) and in batches of entries formatted
// elsewhere (AddFiles, as the archive sinks feed it, cut where the rest of
// the input says). Where the definition fails, the fold fails with
// ErrManifestIntegrity.
func FuzzDigestFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 1, 0, 0, 0, 0}) // root/b, then root/a
	f.Add([]byte{3, 0, 0, 1, 1, 1, 0, 2, 1, 9, 1, 4, 1, 0, 2, 1, 2, 3, 0, 1, 1, 1, 3, 2, 0, 1})
	f.Add([]byte{15, 0, 2, 1, 1, 0, 1, 2, 2, 0, 3, 0, 1, 2, 1, 2, 3, 1, 0, 2, 0, 1, 40, 1, 1, 0, 7, 0, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, sums, rest := fuzzImage(data)
		want, oracleErr := oracleDigest(img, sums)
		got, err := CombineDigest(img, sums)
		if oracleErr != nil {
			if !errors.Is(err, ErrManifestIntegrity) {
				t.Fatalf("the definition fails (%v); CombineDigest says %s, %v", oracleErr, got, err)
			}
		} else if err != nil || got != want {
			t.Fatalf("CombineDigest gives %s (%v), the definition %s", got, err, want)
		}

		fold := NewDigestFold(img.DirCount(), img.FileCount(), img.TotalBytes())
		for id := range img.Tree.Len() {
			fold.AddDir(img.Tree, id)
		}
		for files := img.Files; len(files) > 0; {
			n := 1
			if len(rest) > 0 {
				n, rest = 1+int(rest[0])%len(files), rest[1:]
			}
			var entries []byte
			for _, f := range files[:n] {
				raw, _ := hex.DecodeString(sums[f.ID])
				entries = AppendFileEntry(entries, f.Name, f.Size, raw)
			}
			fold.AddFiles(files[:n], entries)
			files = files[n:]
		}
		if got, err := fold.Sum(); oracleErr != nil {
			if !errors.Is(err, ErrManifestIntegrity) {
				t.Fatalf("the definition fails (%v); the batched fold says %s, %v", oracleErr, got, err)
			}
		} else if err != nil || got != want {
			t.Fatalf("the batched fold gives %s (%v), the definition %s", got, err, want)
		}
	})
}
