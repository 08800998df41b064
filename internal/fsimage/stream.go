package fsimage

import (
	"fmt"
	"strings"

	"impressions/internal/namespace"
)

// The streaming record API decouples producing an image's metadata from
// retaining it. An image is, on the wire and in every consumer that doesn't
// need random access, just a canonical record stream: every directory
// (DirRecord) in ID order, then every file (File) in ID order. Producers
// push that stream into one RecordSink; what the sink does with it — buffer
// it into chunks (ChunkEncoder), fold it into the canonical digest
// (DigestBuilder), accumulate histograms (ImageStats), or write it to disk
// (MaterializeSink) — is the consumer's choice. A consumer that needs paths
// reads them from the tree whoever feeds it already holds — the generator's,
// or the one a TreeSink rebuilds while it validates the stream — rather than
// rebuilding another: DigestFold formats the digest over a caller's tree, and
// MaterializeSink writes under one. The in-memory Image is kept for small
// images, random access, and the library API; it is not the interchange
// format, so pipelines that only stream hold O(chunk) file records
// regardless of image size.

// RecordSink consumes an image metadata stream in canonical order: every
// directory record in ascending ID order (the root first), then every file
// record in ascending ID order. A sink returning an error aborts the stream.
type RecordSink interface {
	AddDir(DirRecord) error
	AddFile(File) error
}

// RecordSource is anything that can replay an image's metadata records into
// a sink in canonical order. *Image implements it (retained replay), as does
// core's columnar metadata pass (generation-fused replay).
type RecordSource interface {
	StreamRecords(RecordSink) error
}

// StreamRecords replays the image's metadata into sink in canonical order,
// making *Image a RecordSource.
func (img *Image) StreamRecords(sink RecordSink) error {
	for i := range img.Tree.Dirs {
		d := &img.Tree.Dirs[i]
		if err := sink.AddDir(DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return err
		}
	}
	for i := range img.Files {
		if err := sink.AddFile(img.Files[i]); err != nil {
			return err
		}
	}
	return nil
}

// TreeSink is the compact structural core shared by every streaming
// consumer that needs paths or validation but not the file records
// themselves: it rebuilds the directory tree (O(dirs), with per-directory
// file counters restored as file records pass by), validates that the
// stream is canonical — dense ascending IDs, known parents, the root first,
// non-negative sizes, consistent depths, legal names — and hands each file
// record to an optional callback instead of retaining it. A stream that is
// not canonical is a damaged artifact: every rejection wraps
// ErrManifestIntegrity.
type TreeSink struct {
	// OnFile, when non-nil, observes every validated file record.
	OnFile func(File) error
	// Sparse accepts a stream that carries some of the image's files, as a
	// shard document does: file IDs must still ascend, but may skip.
	Sparse bool

	tree       *namespace.Tree
	nextFileID int
	files      int
	totalBytes int64
}

// NewTreeSink returns a sink that rebuilds the directory tree and forwards
// validated file records to onFile (which may be nil).
func NewTreeSink(onFile func(File) error) *TreeSink {
	return &TreeSink{OnFile: onFile}
}

// AddDir applies the next directory record.
func (s *TreeSink) AddDir(d DirRecord) error {
	if s.files > 0 {
		return fmt.Errorf("fsimage: directory %d arrived after the file stream began (%w)", d.ID, ErrManifestIntegrity)
	}
	if s.tree == nil {
		if d.ID != 0 {
			return fmt.Errorf("fsimage: metadata stream begins with directory %d, want the root (0) (%w)", d.ID, ErrManifestIntegrity)
		}
		s.tree = namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
		s.tree.Dirs[0].Name = d.Name
		s.tree.Dirs[0].Special = d.Special
		s.tree.Dirs[0].Bias = d.Bias
		return nil
	}
	if d.Parent < 0 || d.Parent >= s.tree.Len() {
		return fmt.Errorf("fsimage: directory %d has invalid parent %d (%w)", d.ID, d.Parent, ErrManifestIntegrity)
	}
	if !EntryName(d.Name) {
		return fmt.Errorf("fsimage: directory %d has invalid name %q (%w)", d.ID, d.Name, ErrManifestIntegrity)
	}
	id := s.tree.AddDir(d.Parent)
	if id != d.ID {
		return fmt.Errorf("fsimage: directory IDs are not dense (got %d want %d) (%w)", id, d.ID, ErrManifestIntegrity)
	}
	s.tree.Dirs[id].Name = d.Name
	s.tree.Dirs[id].Special = d.Special
	s.tree.Dirs[id].Bias = d.Bias
	return nil
}

// AddFile validates the next file record, restores the containing
// directory's counters, and forwards the record to OnFile.
func (s *TreeSink) AddFile(f File) error {
	if s.tree == nil {
		return fmt.Errorf("fsimage: file %d arrived before any directory record (%w)", f.ID, ErrManifestIntegrity)
	}
	if f.ID != s.nextFileID && !(s.Sparse && f.ID > s.nextFileID) {
		return fmt.Errorf("fsimage: file IDs are not dense and ascending (got %d want %d) (%w)", f.ID, s.nextFileID, ErrManifestIntegrity)
	}
	if f.DirID < 0 || f.DirID >= s.tree.Len() {
		return fmt.Errorf("fsimage: file %d references unknown directory %d (%w)", f.ID, f.DirID, ErrManifestIntegrity)
	}
	if f.Size < 0 {
		return fmt.Errorf("fsimage: file %q has negative size %d (%w)", f.Name, f.Size, ErrManifestIntegrity)
	}
	if wantDepth := s.tree.Dirs[f.DirID].Depth + 1; f.Depth != wantDepth {
		return fmt.Errorf("fsimage: file %q depth %d does not match directory depth %d (%w)", f.Name, f.Depth, wantDepth, ErrManifestIntegrity)
	}
	if !EntryName(f.Name) {
		return fmt.Errorf("fsimage: file %d has invalid name %q (%w)", f.ID, f.Name, ErrManifestIntegrity)
	}
	s.nextFileID = f.ID + 1
	s.files++
	s.totalBytes += f.Size
	s.tree.Dirs[f.DirID].FileCount++
	s.tree.Dirs[f.DirID].Bytes += f.Size
	if s.OnFile != nil {
		return s.OnFile(f)
	}
	return nil
}

// EntryName reports whether name can name one entry inside its directory: a
// path joined from it stays under the directory it names. It is the one rule
// for the names an image holds, whichever reader meets them.
func EntryName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, "/\x00")
}

// Tree returns the directory tree rebuilt so far (nil before the root
// record arrives).
func (s *TreeSink) Tree() *namespace.Tree { return s.tree }

// DirCount returns the number of directory records applied.
func (s *TreeSink) DirCount() int {
	if s.tree == nil {
		return 0
	}
	return s.tree.Len()
}

// FileCount returns the number of file records applied.
func (s *TreeSink) FileCount() int { return s.files }

// TotalBytes returns the byte total of the file records applied.
func (s *TreeSink) TotalBytes() int64 { return s.totalBytes }
