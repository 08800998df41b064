package imgfmt

import (
	"context"
	"fmt"
	"io"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// tarWriter is the calling goroutine's half of every tar-producing path —
// the monolithic TarSink, the per-shard WriteSegment, and the Stitcher: the
// directory entries (for the Stitcher the file entries too) written to out
// through the shared header builder. out is the body engine of the first
// two (fsimage.ImageBody), whose workers frame the file entries through the
// same builder, and a buffered writer for the Stitcher.
type tarWriter struct {
	out interface {
		io.Writer
		Flush() error
	}
	ctx     context.Context
	headers *tarHeaders
	// tree is the full image tree entry names are built from; the owner
	// sets it before the first header (TarSink as it grows).
	tree *namespace.Tree
	// dir, file and hdr render the entry being written, reused from one to
	// the next.
	dir, hdr []byte
	file     fsimage.FilePath
}

// writeHeader emits the header of the entry named name.
func (t *tarWriter) writeHeader(tpl *tarTemplate, name []byte, size int64) error {
	var err error
	if t.hdr, err = tpl.AppendHeader(t.hdr[:0], name, size); err != nil {
		return err
	}
	if _, err := t.out.Write(t.hdr); err != nil {
		return fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return nil
}

// writeDirHeader emits one directory entry (nothing for the image root —
// the extraction root stands in for it) and returns the entry name, the
// directory's slash path with a trailing slash, valid until the next header.
func (t *tarWriter) writeDirHeader(id int) ([]byte, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	if id == 0 {
		return nil, nil
	}
	t.dir = append(t.tree.AppendPath(t.dir[:0], id), '/')
	return t.dir, t.writeHeader(&t.headers.dir, t.dir, 0)
}

// writeFileHeader emits one file entry's header and returns the entry name,
// valid until the next header; the caller supplies exactly f.Size body bytes
// and their padding.
func (t *tarWriter) writeFileHeader(f fsimage.File) ([]byte, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	name := t.file.Append(t.tree, f)
	return name, t.writeHeader(&t.headers.file, name, f.Size)
}

// finish flushes the stream behind trailer zero bytes: the two blocks that
// end an archive, or none for a segment.
func (t *tarWriter) finish(trailer int) error {
	if _, err := t.out.Write(zeroBlock[:trailer]); err != nil {
		return fmt.Errorf("imgfmt: writing tar trailer: %w", err)
	}
	if err := t.out.Flush(); err != nil {
		return fmt.Errorf("imgfmt: flushing tar stream: %w", err)
	}
	return nil
}

// TarSink is the streaming tar materializer: a RecordSink that serializes
// the canonical record stream into one POSIX tar archive. Its file entries
// — header, generated content, padding — are an fsimage.ImageBody's, each
// written where it goes in the archive and reported to OnDigest during a
// later AddFile or Close. Close writes the end-of-archive trailer; the
// bytes are a pure function of the record stream and Options. A method
// that returns an error has stopped the workers: a failed sink needs no
// Close.
type TarSink struct {
	t    *tarWriter
	body *fsimage.ImageBody
	ts   fsimage.TreeSink
}

// NewTarSink starts a tar serialization onto w, from w's offset. opts.Seed
// must carry the content seed (there is no image to default from).
func NewTarSink(w io.Writer, opts Options) *TarSink {
	opts = opts.WithDefaults(opts.Seed)
	headers := newTarHeaders()
	body := fsimage.NewImageBody(opts, w, &headers.file)
	return &TarSink{t: &tarWriter{out: body, ctx: opts.Context, headers: headers}, body: body}
}

// AddDir appends the next directory entry.
func (s *TarSink) AddDir(d fsimage.DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return s.body.Fail(err)
	}
	s.t.tree = s.ts.Tree()
	s.body.AddDir(s.t.tree, d.ID)
	if _, err := s.t.writeDirHeader(d.ID); err != nil {
		return s.body.Fail(err)
	}
	return nil
}

// AddFile appends the next file entry; its header and generated content
// follow the entries queued before it.
func (s *TarSink) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return s.body.Fail(err)
	}
	return s.body.AddFile(f)
}

// Close writes the entries still queued, then the tar trailer, and
// flushes. The sink must not be used afterwards.
func (s *TarSink) Close() error {
	if err := s.body.Close(); err != nil {
		return err
	}
	return s.t.finish(tarTrailer)
}

// Written returns the content bytes written so far (header and padding
// overhead excluded — comparable to Materialize's return).
func (s *TarSink) Written() int64 { return s.body.Written() }

// WriteSegment writes one shard's records as a tar segment: the shard's
// directories (ascending IDs, the image root skipped) then its files
// (ascending ID order) — exactly the shard's sub-sequence of the canonical
// stream. The segment ends truncated at EOF, without the end-of-archive
// trailer: archive/tar reads it cleanly (io.EOF at the clean boundary),
// and Stitcher consumes segments in canonical order to reassemble the
// byte-identical monolithic archive. The tree must be the full image tree
// (shard paths reach through ancestors owned by other shards). Returns the
// content bytes written.
func WriteSegment(w io.Writer, tree *namespace.Tree, dirs []int, files []fsimage.File, opts Options) (int64, error) {
	s := NewTarSink(w, opts)
	s.t.tree = tree
	for _, id := range dirs {
		s.body.AddDir(tree, id)
		if _, err := s.t.writeDirHeader(id); err != nil {
			return 0, s.body.Fail(err)
		}
	}
	for _, f := range files {
		if err := s.body.AddFile(f); err != nil {
			return s.body.Written(), err
		}
	}
	if err := s.body.Close(); err != nil {
		return s.body.Written(), err
	}
	// Every entry is padded to its block boundary; a segment is the
	// truncated-at-EOF form, with no end-of-archive trailer behind them.
	return s.body.Written(), s.t.finish(0)
}
