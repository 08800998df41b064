package impressions_test

import (
	"io"
	"syscall"

	"impressions/internal/fsimage"
)

// floorRange creates files, a range of the canonical order, under
// dirs[DirID], each holding the first Size bytes of buf: one descriptor per
// directory's run of files, and each file created with openat(2) against
// it, as the VFS writer does on Linux.
func floorRange(dirs []string, files []fsimage.File, buf []byte) error {
	dir, dirFD := -1, -1
	defer func() {
		if dir >= 0 {
			syscall.Close(dirFD)
		}
	}()
	for _, f := range files {
		if f.DirID != dir {
			if dir >= 0 {
				syscall.Close(dirFD)
			}
			fd, err := syscall.Open(dirs[f.DirID], syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
			if err != nil {
				dir = -1
				return err
			}
			dir, dirFD = f.DirID, fd
		}
		fd, err := syscall.Openat(dirFD, f.Name, syscall.O_CREAT|syscall.O_WRONLY|syscall.O_TRUNC|syscall.O_CLOEXEC, 0o644)
		if err != nil {
			return err
		}
		n, err := syscall.Write(fd, buf[:f.Size])
		if err == nil && n != int(f.Size) {
			err = io.ErrShortWrite
		}
		if cerr := syscall.Close(fd); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
