package fsimage

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"impressions/internal/namespace"
)

// ScanResult is what ScanTree found: the image built from the regular
// entries, plus a count of everything that was deliberately left out.
type ScanResult struct {
	Image *Image
	// Irregular counts the non-regular, non-directory entries the scan
	// skipped: symlinks, sockets, FIFOs, device nodes. They carry no content
	// Impressions models (a symlink's Info reports the target path's length,
	// not file bytes), so counting them as files would skew the size and
	// depth histograms of real scanned trees.
	Irregular int
}

// Scan walks a real directory tree rooted at root and builds an Image from
// what it finds. It is the inverse of Materialize and also what the fsstat
// tool uses to report the distributions of an existing file system, so users
// can feed measured curves back into Impressions. Non-regular entries
// (symlinks, devices, FIFOs) are skipped; use ScanTree to learn how many.
func Scan(root string) (*Image, error) {
	res, err := ScanTree(root)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// ScanTree is Scan plus a report of the skipped irregular entries. It takes
// each directory's files in byte-wise name order, then numbers and scans its
// subdirectories in that order, as the canonical digest takes them.
func ScanTree(root string) (*ScanResult, error) {
	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	res := &ScanResult{Image: New(tree)}
	var scan func(path string, id int) error
	scan = func(path string, id int) error {
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var subdirs []string
		for _, e := range entries {
			// e.Type() is the entry's own: a symlink, even to a directory,
			// is irregular. Only regular files carry sizes to count.
			switch {
			case e.IsDir():
				subdirs = append(subdirs, e.Name())
			case e.Type()&fs.ModeType != 0:
				res.Irregular++
			default:
				fi, err := e.Info()
				if err != nil {
					return err
				}
				res.Image.AddFile(e.Name(), ExtensionOf(e.Name()), fi.Size(), id, tree.Dirs[id].Depth+1)
				tree.Dirs[id].FileCount++
				tree.Dirs[id].Bytes += fi.Size()
			}
		}
		for _, name := range subdirs {
			sub := tree.AddDir(id)
			tree.Dirs[sub].Name = name
			if err := scan(filepath.Join(path, name), sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(root, 0); err != nil {
		return nil, fmt.Errorf("fsimage: scanning %q: %w", root, err)
	}
	return res, nil
}
