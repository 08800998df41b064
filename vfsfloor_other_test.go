//go:build !linux

package impressions_test

import (
	"io"
	"path/filepath"
	"syscall"

	"impressions/internal/fsimage"
)

// floorRange creates files, a range of the canonical order, under
// dirs[DirID], each holding the first Size bytes of buf and opened by its
// full path, as the VFS writer does off Linux.
func floorRange(dirs []string, files []fsimage.File, buf []byte) error {
	for _, f := range files {
		if err := floorFile(filepath.Join(dirs[f.DirID], f.Name), buf[:f.Size]); err != nil {
			return err
		}
	}
	return nil
}

// floorFile is one file of floorRange: open, one write, close.
func floorFile(path string, data []byte) error {
	fd, err := syscall.Open(path, syscall.O_CREAT|syscall.O_WRONLY|syscall.O_TRUNC|syscall.O_CLOEXEC, 0o644)
	if err != nil {
		return err
	}
	n, err := syscall.Write(fd, data)
	if err == nil && n != len(data) {
		err = io.ErrShortWrite
	}
	if cerr := syscall.Close(fd); err == nil {
		err = cerr
	}
	return err
}
