//go:build !linux

package fsimage

import (
	"hash"
	"syscall"

	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// fileCreator creates one worker chunk's files, each by its full path: the
// syscall package has openat(2) on Linux alone.
type fileCreator struct {
	root string
	tree *namespace.Tree
	path []byte
}

func newFileCreator(root string, tree *namespace.Tree) fileCreator {
	return fileCreator{root: root, tree: tree}
}

// write creates f and fills and closes it (writeFile).
func (c *fileCreator) write(f File, opts MaterializeOptions, rng *stats.RNG, sum hash.Hash) (step string, err error) {
	c.path = appendEntryPath(c.path, c.root, c.tree, f.DirID, f.Name)
	p := string(c.path)
	fd, err := syscall.Open(p, openFlags, filePerm)
	for err == syscall.EINTR {
		fd, err = syscall.Open(p, openFlags, filePerm)
	}
	if err != nil {
		return "creating file", err
	}
	return writeFile(fd, f, opts, rng, sum)
}

// close has nothing to close.
func (c *fileCreator) close() {}
