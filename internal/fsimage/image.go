// Package fsimage defines the in-memory representation of a file-system
// image: the directory tree, the files with their attributes (size, depth,
// extension, parent), the reproducibility specification and report, and the
// machinery to materialize an image onto a real file system, scan a real
// directory tree back into an image, and serialize images to JSON.
//
// There is one VFS writer, MaterializeShardRecords, over a slice of file
// records: Image.Materialize and the distributed executor's directory
// target are calls to it, and so is every batch of MaterializeSink, the
// streamed writer that holds 4096 records of an image too large to retain.
// ContentDigests/Digest is the hash-only oracle the writers are tested
// against. The canonical digest has one fold, DigestFold, which holds no
// tree: whoever feeds it formats the lines over the tree it already has —
// the generator's (MaterializeSink), the one an archive sink rebuilds to
// name its entries, the distributed merge's record check, or, for a stream
// on its own, DigestBuilder's TreeSink.
//
// The chunked metadata stream (chunks.go) is how records travel in plan,
// fragment and shard documents. Its encoder side renders with appenders:
// Chunk.RecordsHash builds the hashed record lines and Chunk.AppendJSON the
// wire form in reused buffers, copying integers and plain printable-ASCII
// strings straight through and handing any other string, and any non-zero
// float, to strconv.AppendQuote and encoding/json, whose output the fast
// path reproduces byte for byte (FuzzChunkCodec holds both to the fmt and
// json.Marshal renderings they replaced). The decoder side is
// encoding/json: it reads bytes this program did not write.
package fsimage

import (
	"fmt"
	"path"
	"strconv"
	"strings"

	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// File is one file in a generated image.
type File struct {
	// ID is the file's index within the image.
	ID int
	// Name is the file's base name (including extension).
	Name string
	// Ext is the file's extension without the leading dot ("" for none).
	Ext string
	// Size is the file's size in bytes.
	Size int64
	// DirID is the ID of the containing directory in the image's Tree.
	DirID int
	// Depth is the file's namespace depth (containing directory depth + 1).
	Depth int
}

// Image is a complete in-memory file-system image.
type Image struct {
	// Tree is the directory tree.
	Tree *namespace.Tree
	// Files lists every file in the image.
	Files []File
	// Spec records the parameters the image was generated from, enabling
	// exact reproduction.
	Spec Spec
}

// New returns an empty image around the given tree.
func New(tree *namespace.Tree) *Image {
	return &Image{Tree: tree}
}

// AddFile appends a file to the image and returns its ID. The containing
// directory's counters in the tree are assumed to have been updated by the
// placer; AddFile does not touch them.
func (img *Image) AddFile(name, ext string, size int64, dirID, depth int) int {
	id := len(img.Files)
	img.Files = append(img.Files, File{
		ID:    id,
		Name:  name,
		Ext:   ext,
		Size:  size,
		DirID: dirID,
		Depth: depth,
	})
	return id
}

// FileCount returns the number of files.
func (img *Image) FileCount() int { return len(img.Files) }

// DirCount returns the number of directories (including the root).
func (img *Image) DirCount() int {
	if img.Tree == nil {
		return 0
	}
	return img.Tree.Len()
}

// TotalBytes returns the sum of all file sizes.
func (img *Image) TotalBytes() int64 {
	var total int64
	for _, f := range img.Files {
		total += f.Size
	}
	return total
}

// MeanFileSize returns the mean file size in bytes (0 for an empty image).
func (img *Image) MeanFileSize() float64 {
	if len(img.Files) == 0 {
		return 0
	}
	return float64(img.TotalBytes()) / float64(len(img.Files))
}

// FilePath returns the slash-separated path of the file relative to the image
// root.
func (img *Image) FilePath(f File) string {
	return string(AppendFilePath(nil, img.Tree, f))
}

// MaxFileDepth returns the deepest file depth in the image.
func (img *Image) MaxFileDepth() int {
	max := 0
	for _, f := range img.Files {
		if f.Depth > max {
			max = f.Depth
		}
	}
	return max
}

// FilesWithExtension returns the number of files carrying the given extension
// (case-insensitive, no dot).
func (img *Image) FilesWithExtension(ext string) int {
	ext = strings.ToLower(ext)
	n := 0
	for _, f := range img.Files {
		if strings.ToLower(f.Ext) == ext {
			n++
		}
	}
	return n
}

// Validate checks internal consistency of the image: every file references an
// existing directory, depths are consistent with the tree, and sizes are
// non-negative.
func (img *Image) Validate() error {
	if img.Tree == nil {
		return fmt.Errorf("fsimage: image has no directory tree")
	}
	for _, f := range img.Files {
		if f.DirID < 0 || f.DirID >= img.Tree.Len() {
			return fmt.Errorf("fsimage: file %q references unknown directory %d", f.Name, f.DirID)
		}
		if f.Size < 0 {
			return fmt.Errorf("fsimage: file %q has negative size %d", f.Name, f.Size)
		}
		wantDepth := img.Tree.Dirs[f.DirID].Depth + 1
		if f.Depth != wantDepth {
			return fmt.Errorf("fsimage: file %q depth %d does not match directory depth %d (%w)",
				f.Name, f.Depth, wantDepth, ErrInvalidSpec)
		}
		if f.Name == "" || strings.ContainsAny(f.Name, "/\x00") {
			return fmt.Errorf("fsimage: file %d has invalid name %q", f.ID, f.Name)
		}
	}
	return nil
}

// ExtensionOf extracts the extension (without dot, lower-cased) from a file
// name; files without a dot report "".
func ExtensionOf(name string) string {
	ext := path.Ext(name)
	return strings.ToLower(strings.TrimPrefix(ext, "."))
}

// MakeFileName builds a file name from a numeric counter and extension,
// matching the paper's "simple numeric counter" naming scheme:
// "file%08d" and, with an extension, "file%08d.%s". Every replay of a
// metadata pass names every file again, so the name is assembled by hand.
func MakeFileName(counter int, ext string) string {
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(counter), 10)
	name := make([]byte, 0, 32)
	name = append(name, "file"...)
	pad := 8 - len(num) // %08d: the width counts the sign, which goes first
	if counter < 0 {
		name, num = append(name, '-'), num[1:]
	}
	for ; pad > 0; pad-- {
		name = append(name, '0')
	}
	name = append(name, num...)
	if ext != "" && ext != "null" {
		name = append(name, '.')
		name = append(name, ext...)
	}
	return string(name)
}

// Summary is a compact human-readable description of an image.
func (img *Image) Summary() string {
	return Summary(img.FileCount(), img.DirCount(), img.TotalBytes(), img.MaxFileDepth())
}

// Summary is Image.Summary from an image's totals, for whoever holds those
// and not the file records.
func Summary(files, dirs int, bytes int64, maxFileDepth int) string {
	return fmt.Sprintf("image: %d files, %d dirs, %s total, max file depth %d",
		files, dirs, stats.FormatBytes(float64(bytes)), maxFileDepth)
}
