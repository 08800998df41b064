package imgfmt

import (
	"archive/tar"
	"bufio"
	"errors"
	"fmt"
	"io"

	"impressions/internal/fsimage"
)

// Stitcher merges per-shard tar segments (written by WriteSegment) back
// into the monolithic archive TarSink would have produced — byte for byte.
// It is itself a RecordSink: feed it the canonical record stream (from the
// plan document) and it walks the stream in order, re-deriving each entry's
// owning shard, rewriting the entry header through the shared builder, and
// copying the entry body from that shard's segment. Segments are consumed
// strictly sequentially — the stitcher holds O(shards) buffers, never
// O(image) bytes.
//
// Every copied entry is verified against the header the stitcher itself
// would write (name, size, type); any mismatch means a segment does not
// belong to this plan and surfaces as fsimage.ErrManifestIntegrity.
type Stitcher struct {
	t    *tarWriter
	ts   fsimage.TreeSink
	segs []*tar.Reader

	written int64 // content bytes copied so far

	// rootShard maps each shard's cut roots to the shard index; shardOf
	// memoizes the assignment for every streamed directory so files and
	// descendant dirs resolve with one slice lookup.
	rootShard map[int]int
	shardOf   []int
}

// NewStitcher prepares a stitch of len(segments) shard segments onto w.
// roots lists each shard's cut roots (Plan.ShardPlan.Roots order); segment
// i must be the tar segment of shard i. opts must match the options the
// segments were written with — the stitcher writes headers, so differing
// metadata would silently diverge from the segment bytes otherwise; the
// name/size verification catches topology mismatches, and opts mismatches
// only alter fixed metadata, never sizes.
func NewStitcher(w io.Writer, segments []io.Reader, roots [][]int, opts Options) (*Stitcher, error) {
	if len(segments) != len(roots) {
		return nil, fmt.Errorf("imgfmt: %d segments for %d shards", len(segments), len(roots))
	}
	s := &Stitcher{
		t:         newTarWriter(w, opts.withDefaults()),
		segs:      make([]*tar.Reader, len(segments)),
		rootShard: make(map[int]int, len(roots)*2),
	}
	for i, r := range segments {
		s.segs[i] = tar.NewReader(bufio.NewReaderSize(r, 64*1024))
	}
	for shard, rs := range roots {
		for _, root := range rs {
			if root < 1 {
				return nil, fmt.Errorf("imgfmt: shard %d lists invalid cut root %d", shard, root)
			}
			if prev, ok := s.rootShard[root]; ok {
				return nil, fmt.Errorf("imgfmt: directory %d is a cut root of shards %d and %d", root, prev, shard)
			}
			s.rootShard[root] = shard
		}
	}
	return s, nil
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

// AddDir writes the directory's entry and consumes its counterpart from
// the owning shard's segment.
func (s *Stitcher) AddDir(d fsimage.DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return err
	}
	// Ancestors stream before descendants, so the owning shard is either
	// declared here (a cut root) or inherited from the parent; the image
	// root always belongs to shard 0 (the partition contract — cut roots
	// are proper subtrees).
	shard := 0
	if d.ID > 0 {
		var ok bool
		if shard, ok = s.rootShard[d.ID]; !ok {
			shard = s.shardOf[d.Parent]
		}
	}
	s.shardOf = append(s.shardOf, shard)
	s.t.tree = s.ts.Tree()
	if d.ID == 0 {
		// The root produces no entry in either the monolithic archive or
		// the owning segment.
		return nil
	}
	name, err := s.t.writeDirHeader(d.ID)
	if err != nil {
		return err
	}
	_, err = s.next(shard, name, 0, tar.TypeDir)
	return err
}

// AddFile writes the file's header and copies its body from the owning
// shard's segment.
func (s *Stitcher) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return err
	}
	name, err := s.t.writeFileHeader(f)
	if err != nil {
		return err
	}
	seg, err := s.next(s.shardOf[f.DirID], name, f.Size, tar.TypeReg)
	if err != nil {
		return err
	}
	n, err := io.Copy(s.t.bw, seg)
	if err != nil {
		return fmt.Errorf("imgfmt: copying %q from segment %d: %w", name, s.shardOf[f.DirID], err)
	}
	if n != f.Size {
		return fmt.Errorf("imgfmt: segment entry %q carried %d of %d bytes: %w", name, n, f.Size, fsimage.ErrManifestIntegrity)
	}
	if _, err := s.t.bw.Write(zeroBlock[:tarPadding(n)]); err != nil {
		return fmt.Errorf("imgfmt: padding %q: %w", name, err)
	}
	s.written += n
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

// Written returns the content bytes copied so far.
func (s *Stitcher) Written() int64 { return s.written }
