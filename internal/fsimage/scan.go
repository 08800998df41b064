package fsimage

import (
	"cmp"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

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

// ScanTree is Scan plus a report of the skipped irregular entries.
func ScanTree(root string) (*ScanResult, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("fsimage: stat root %q: %w", root, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("fsimage: root %q is not a directory", root)
	}

	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	img := New(tree)
	dirIDs := map[string]int{".": 0}

	// Collect entries in deterministic order: WalkDir visits lexically.
	type pendingFile struct {
		dir  int
		name string
		size int64
	}
	var files []pendingFile
	irregular := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			return nil
		}
		rel = filepath.ToSlash(rel)
		parentID, ok := dirIDs[parentOf(rel)]
		if !ok {
			return fmt.Errorf("fsimage: scan saw %q before its parent", rel)
		}
		if d.IsDir() {
			id := tree.AddDir(parentID)
			tree.Dirs[id].Name = d.Name()
			dirIDs[rel] = id
			return nil
		}
		// WalkDir lstats entries, so d.Type() is the entry's own type: a
		// symlink (even to a directory) shows up here, not as a dir. Only
		// regular files carry sizes the histograms should see.
		if d.Type()&fs.ModeType != 0 {
			irregular++
			return nil
		}
		fi, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		files = append(files, pendingFile{dir: parentID, name: d.Name(), size: fi.Size()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fsimage: scanning %q: %w", root, err)
	}

	// The canonical order is directory-major; WalkDir met each directory's
	// files by name.
	slices.SortStableFunc(files, func(a, b pendingFile) int { return cmp.Compare(a.dir, b.dir) })
	for _, pf := range files {
		img.AddFile(pf.name, ExtensionOf(pf.name), pf.size, pf.dir, tree.Dirs[pf.dir].Depth+1)
		tree.Dirs[pf.dir].FileCount++
		tree.Dirs[pf.dir].Bytes += pf.size
	}
	return &ScanResult{Image: img, Irregular: irregular}, nil
}

func parentOf(rel string) string {
	dir := filepath.ToSlash(filepath.Dir(rel))
	if dir == "" {
		return "."
	}
	return dir
}
