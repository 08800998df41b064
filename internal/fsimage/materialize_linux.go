package fsimage

import (
	"io"
	"syscall"

	"impressions/internal/namespace"
)

// dirFlags opens a directory to create files in. The syscall package has no
// O_PATH, so it is a read-only descriptor.
const dirFlags = syscall.O_RDONLY | syscall.O_DIRECTORY | syscall.O_CLOEXEC

// fileCreator is a MaterializeSink worker's end of the directory: the files
// of its runs come by directory, so it holds one descriptor on the
// directory of the current run of them and creates each with openat(2)
// against it.
type fileCreator struct {
	root string
	tree *namespace.Tree
	dir  int // the directory dirFD is open on; -1 while none is
	// dirFD is the descriptor on dir.
	dirFD int
	path  []byte
}

func newFileCreator(root string, tree *namespace.Tree) *fileCreator {
	return &fileCreator{root: root, tree: tree, dir: -1}
}

// write creates f — opening its directory first when f starts a run — and
// fills and closes it (writeFile).
func (c *fileCreator) write(f File, fill func(io.Writer) error) (step string, err error) {
	if f.DirID != c.dir {
		c.close()
		c.path = appendEntryPath(c.path, c.root, c.tree, f.DirID, "")
		p := string(c.path)
		fd, err := syscall.Open(p, dirFlags, 0)
		for err == syscall.EINTR {
			fd, err = syscall.Open(p, dirFlags, 0)
		}
		if err != nil {
			return "creating file", err
		}
		c.dir, c.dirFD = f.DirID, fd
	}
	fd, err := syscall.Openat(c.dirFD, f.Name, openFlags, filePerm)
	for err == syscall.EINTR {
		fd, err = syscall.Openat(c.dirFD, f.Name, openFlags, filePerm)
	}
	if err != nil {
		return "creating file", err
	}
	return writeFile(fd, f, fill)
}

// close closes the directory descriptor, if one is open.
func (c *fileCreator) close() {
	if c.dir >= 0 {
		syscall.Close(c.dirFD)
		c.dir = -1
	}
}
