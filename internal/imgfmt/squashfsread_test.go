package imgfmt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
)

// squashfsBytes writes img through a SquashfsSink and returns the image.
func squashfsBytes(tb testing.TB, img *fsimage.Image) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "image.squashfs")
	out, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer out.Close()
	sink, err := imgfmt.NewSquashfsSink(out, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 1})
	if err != nil {
		tb.Fatalf("NewSquashfsSink: %v", err)
	}
	if err := img.StreamRecords(sink); err != nil {
		tb.Fatalf("StreamRecords: %v", err)
	}
	if err := sink.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// flatImage is a root holding the named subdirectories and files of the
// given sizes.
func flatImage(dirs []string, sizes ...int64) *fsimage.Image {
	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	for _, name := range dirs {
		tree.Dirs[tree.AddDir(0)].Name = name
	}
	img := fsimage.New(tree)
	img.Spec.Seed = 9
	for _, size := range sizes {
		img.AddFile(fsimage.MakeFileName(len(img.Files), "txt"), "txt", size, 0, 1)
	}
	return img
}

// escapingImage is a one-file image whose listing names the file
// "../escaped000.tx": extracted as written, it would land beside dest.
func escapingImage(tb testing.TB) []byte {
	data := squashfsBytes(tb, flatImage(nil, 10))
	name := []byte("file00000000.txt")
	if bytes.Count(data, name) != 1 {
		tb.Fatalf("the image does not hold the file name once")
	}
	copy(data[bytes.Index(data, name):], "../escaped000.tx")
	return data
}

// cyclicImage is an image of two empty subdirectories, "a" and "b", whose
// listing entries both point back at the root inode: extracted as written,
// it would nest a/a/a/... until the path is too long.
func cyclicImage(tb testing.TB) []byte {
	data := squashfsBytes(tb, flatImage([]string{"a", "b"}))
	for id, name := range []string{"a", "b"} {
		// A listing entry is inode offset, inode delta, type, name length - 1
		// and the name; a directory named by one letter ends in 1, 0, name.
		tail := append([]byte{1, 0, 0, 0}, name...)
		if bytes.Count(data, tail) != 1 {
			tb.Fatalf("the image does not hold the entry of %q once", name)
		}
		entry := bytes.Index(data, tail) - 4
		// The entry's inode is directory id+1's, inode number id+2; the root
		// is inode 1 at offset 0 of the same metadata block.
		delta := int16(binary.LittleEndian.Uint16(data[entry+2:]))
		binary.LittleEndian.PutUint16(data[entry:], 0)
		binary.LittleEndian.PutUint16(data[entry+2:], uint16(delta-int16(id+1)))
	}
	return data
}

// extractContract runs ExtractSquashfs on data into a fresh dest and holds
// it to the reader's contract: nil, ErrManifestIntegrity, or the
// *fs.PathError of a creation under dest; nothing beside dest; allocation
// within a multiple of the input; a prompt return. It returns the error.
func extractContract(t *testing.T, data []byte) error {
	parent := t.TempDir()
	dest := filepath.Join(parent, "dest")
	if err := os.Mkdir(dest, 0o755); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := imgfmt.ExtractSquashfs(bytes.NewReader(data), dest)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	var pathErr *fs.PathError
	if err != nil && !errors.Is(err, fsimage.ErrManifestIntegrity) && !errors.As(err, &pathErr) {
		t.Errorf("ExtractSquashfs: %v, neither ErrManifestIntegrity nor a *fs.PathError", err)
	}
	if left, _ := os.ReadDir(parent); len(left) != 1 {
		t.Errorf("ExtractSquashfs created %d entries beside dest", len(left)-1)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20+64*uint64(len(data)) {
		t.Errorf("extracting %d bytes allocated %d", len(data), grown)
	}
	if took > 10*time.Second {
		t.Errorf("extracting %d bytes took %v", len(data), took)
	}
	return err
}

// TestExtractSquashfsRejectsForgedListings: an entry name that leaves its
// directory, and a listing that leads back to a directory already extracted,
// are damaged images, and nothing is written outside dest.
func TestExtractSquashfsRejectsForgedListings(t *testing.T) {
	for name, forge := range map[string]func(testing.TB) []byte{"escaping name": escapingImage, "directory cycle": cyclicImage} {
		t.Run(name, func(t *testing.T) {
			if err := extractContract(t, forge(t)); !errors.Is(err, fsimage.ErrManifestIntegrity) {
				t.Errorf("ExtractSquashfs: %v, want ErrManifestIntegrity", err)
			}
		})
	}
}

// TestSquashfsMatchesUnsquashfs: where the host has unsquashfs, a reader
// that shares none of the writer's assumptions extracts the sink's image to
// the tree the in-repo reader does.
func TestSquashfsMatchesUnsquashfs(t *testing.T) {
	tool, err := exec.LookPath("unsquashfs")
	if err != nil {
		t.Skip("unsquashfs is not installed")
	}
	data := squashfsBytes(t, sinkTestImage(t, 11))
	path := filepath.Join(t.TempDir(), "image.squashfs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	theirs := filepath.Join(t.TempDir(), "unsquashfs") // unsquashfs creates it
	if out, err := exec.Command(tool, "-d", theirs, path).CombinedOutput(); err != nil {
		t.Fatalf("unsquashfs: %v\n%s", err, out)
	}
	ours := t.TempDir()
	if err := imgfmt.ExtractSquashfs(bytes.NewReader(data), ours); err != nil {
		t.Fatalf("ExtractSquashfs: %v", err)
	}
	want, err := fsimage.HashTree(ours)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fsimage.HashTree(theirs); err != nil || got != want {
		t.Errorf("unsquashfs extracted tree hash %s (%v), ExtractSquashfs %s", got, err, want)
	}
}

// FuzzExtractSquashfs feeds the extractor images that are no longer the
// sink's and holds it to extractContract.
func FuzzExtractSquashfs(f *testing.F) {
	f.Add(squashfsBytes(f, flatImage([]string{"a", "b"}, 0, 130<<10, 700))) // a file of two data blocks
	f.Add(escapingImage(f))
	f.Add(cyclicImage(f))
	f.Fuzz(func(t *testing.T, data []byte) { extractContract(t, data) })
}
