package imgfmt

import (
	"archive/tar"
	"bufio"
	"errors"
	"fmt"
	"io"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Stitcher merges per-shard tar segments (written by WriteSegment) back
// into the monolithic archive TarSink would have produced — byte for byte.
// Its caller walks the canonical record stream (the plan's fragments) over
// a tree and a partition it has validated, and hands the stitcher each entry
// with the shard that owns it: the stitcher writes the entry header through
// the shared builder and copies the entry body from that shard's segment.
// Segments are consumed strictly sequentially — the stitcher holds
// O(shards) buffers, never O(image) bytes.
//
// Every copied entry is verified against the header the stitcher itself
// would write (name, size, type); any mismatch means a segment does not
// belong to this plan and surfaces as fsimage.ErrManifestIntegrity.
type Stitcher struct {
	t    *tarWriter
	segs []*tar.Reader
}

// NewStitcher prepares a stitch onto w of the image whose full directory
// tree is tree, from len(segments) shard segments: segment i must be the tar
// segment of shard i. opts must match the options the segments were written
// with — the stitcher writes headers, so differing metadata would silently
// diverge from the segment bytes otherwise; the name/size verification
// catches topology mismatches, and opts mismatches only alter fixed
// metadata, never sizes.
func NewStitcher(w io.Writer, tree *namespace.Tree, segments []io.Reader, opts Options) *Stitcher {
	s := &Stitcher{t: newTarWriter(w, opts.withDefaults()), segs: make([]*tar.Reader, len(segments))}
	s.t.tree = tree
	for i, r := range segments {
		s.segs[i] = tar.NewReader(bufio.NewReaderSize(r, 64*1024))
	}
	return s
}

// next advances shard's segment to its next entry and verifies it is the
// entry the monolithic stream expects here.
func (s *Stitcher) next(shard int, name []byte, size int64, typeflag byte) (*tar.Reader, error) {
	seg := s.segs[shard]
	hdr, err := seg.Next()
	if err != nil {
		return nil, fmt.Errorf("imgfmt: segment %d ended before entry %q: %w (%w)", shard, name, err, fsimage.ErrManifestIntegrity)
	}
	if hdr.Name != string(name) || hdr.Size != size || hdr.Typeflag != typeflag {
		return nil, fmt.Errorf("imgfmt: segment %d entry %q (size %d, type %d) where plan expects %q (size %d, type %d): %w",
			shard, hdr.Name, hdr.Size, hdr.Typeflag, name, size, typeflag, fsimage.ErrManifestIntegrity)
	}
	return seg, nil
}

// AddDir writes the entry of directory id (none for the image root, which
// no archive holds) and consumes its counterpart from the segment of shard,
// its owner. Directories go in ID order, before every file.
func (s *Stitcher) AddDir(id, shard int) error {
	if id == 0 {
		return nil
	}
	name, err := s.t.writeDirHeader(id)
	if err != nil {
		return err
	}
	_, err = s.next(shard, name, 0, tar.TypeDir)
	return err
}

// AddFile writes the file's header and copies its body from the segment of
// shard, the owner of its directory. Files go in ID order.
func (s *Stitcher) AddFile(f fsimage.File, shard int) error {
	name, err := s.t.writeFileHeader(f)
	if err != nil {
		return err
	}
	seg, err := s.next(shard, name, f.Size, tar.TypeReg)
	if err != nil {
		return err
	}
	n, err := io.Copy(s.t.bw, seg)
	if err != nil {
		return fmt.Errorf("imgfmt: copying %q from segment %d: %w", name, shard, err)
	}
	if n != f.Size {
		return fmt.Errorf("imgfmt: segment entry %q carried %d of %d bytes: %w", name, n, f.Size, fsimage.ErrManifestIntegrity)
	}
	if _, err := s.t.bw.Write(zeroBlock[:tarPadding(n)]); err != nil {
		return fmt.Errorf("imgfmt: padding %q: %w", name, err)
	}
	return nil
}

// Close verifies every segment is fully consumed, then writes the tar
// trailer and flushes.
func (s *Stitcher) Close() error {
	for i, seg := range s.segs {
		if _, err := seg.Next(); !errors.Is(err, io.EOF) {
			return fmt.Errorf("imgfmt: segment %d has entries beyond the plan stream: %w", i, fsimage.ErrManifestIntegrity)
		}
	}
	return s.t.finish(tarTrailer)
}
