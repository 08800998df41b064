//go:build !linux

package fsimage

import (
	"io"
	"syscall"

	"impressions/internal/namespace"
)

// fileCreator is a MaterializeSink worker's end of the directory: it
// creates each file by its full path, as the syscall package has openat(2)
// on Linux alone.
type fileCreator struct {
	root string
	tree *namespace.Tree
	path []byte
}

func newFileCreator(root string, tree *namespace.Tree) *fileCreator {
	return &fileCreator{root: root, tree: tree}
}

// write creates f and fills and closes it (writeFile).
func (c *fileCreator) write(f File, fill func(io.Writer) error) (step string, err error) {
	c.path = appendEntryPath(c.path, c.root, c.tree, f.DirID, f.Name)
	p := string(c.path)
	fd, err := syscall.Open(p, openFlags, filePerm)
	for err == syscall.EINTR {
		fd, err = syscall.Open(p, openFlags, filePerm)
	}
	if err != nil {
		return "creating file", err
	}
	return writeFile(fd, f, fill)
}

// close has nothing to close.
func (c *fileCreator) close() {}
