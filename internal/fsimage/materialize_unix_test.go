//go:build unix

package fsimage

import (
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"
)

// TestMaterializeModes: a materialized tree's directories are 0755 and its
// files 0644, less the umask — what os.MkdirAll and os.OpenFile gave before
// the writer went to raw system calls.
func TestMaterializeModes(t *testing.T) {
	umask := fs.FileMode(syscall.Umask(0))
	syscall.Umask(int(umask))
	img := buildTestImage(t)
	for _, metadataOnly := range []bool{false, true} {
		root := t.TempDir()
		if _, err := img.Materialize(root, MaterializeOptions{MetadataOnly: metadataOnly}); err != nil {
			t.Fatal(err)
		}
		var dirs, files int
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || path == root {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			want := fs.FileMode(filePerm) &^ umask
			if d.IsDir() {
				want = fs.ModeDir | fs.FileMode(dirPerm)&^umask
				dirs++
			} else {
				files++
			}
			if info.Mode() != want {
				t.Errorf("metadata-only %v: %s has mode %v, want %v", metadataOnly, path, info.Mode(), want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if dirs != img.DirCount()-1 || files != img.FileCount() {
			t.Errorf("metadata-only %v: walked %d directories and %d files, want %d and %d", metadataOnly, dirs, files, img.DirCount()-1, img.FileCount())
		}
	}
}
