package imgfmt

import (
	"archive/tar"
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// tarWriter is the serialization core shared by every tar-producing path —
// the monolithic TarSink, the per-shard WriteSegment, and the Stitcher. All
// three build entry names and headers through the same code, which is what
// makes "segment-stitched equals monolithic" true byte for byte, not just
// semantically.
type tarWriter struct {
	tw   *tar.Writer
	bw   *bufio.Writer
	opts Options
	ctx  context.Context
	// tree is the full image tree entry names are built from; the owner
	// sets it before the first header (TarSink and Stitcher as it grows).
	tree *namespace.Tree
	// body generates file content ahead of the writer; headers and bodies
	// still reach tw from the calling goroutine only, in stream order.
	body    *bodyEngine
	pathBuf []byte
}

func newTarWriter(w io.Writer, opts Options) *tarWriter {
	opts = opts.withDefaults()
	bw := bufio.NewWriterSize(fullWriter{w}, 64*1024)
	t := &tarWriter{tw: tar.NewWriter(bw), bw: bw, opts: opts, ctx: opts.ctx()}
	t.body = newBodyEngine(opts,
		func(f fsimage.File) error { _, err := t.writeFileHeader(f); return err },
		func(p []byte) error { _, err := t.tw.Write(p); return err })
	return t
}

// dirEntryName builds the canonical archive name of a directory: its
// slash path with a trailing slash.
func (t *tarWriter) dirEntryName(id int) string {
	t.pathBuf = t.tree.AppendPath(t.pathBuf[:0], id)
	t.pathBuf = append(t.pathBuf, '/')
	return string(t.pathBuf)
}

// fileEntryName builds the canonical archive name of a file record.
func (t *tarWriter) fileEntryName(f fsimage.File) string {
	t.pathBuf = t.tree.AppendPath(t.pathBuf[:0], f.DirID)
	if len(t.pathBuf) > 0 {
		t.pathBuf = append(t.pathBuf, '/')
	}
	t.pathBuf = append(t.pathBuf, f.Name...)
	return string(t.pathBuf)
}

// writeDirHeader emits one directory entry (nothing for the image root —
// the extraction root stands in for it) and returns the entry name.
func (t *tarWriter) writeDirHeader(id int) (string, error) {
	if err := t.ctx.Err(); err != nil {
		return "", err
	}
	if id == 0 {
		return "", nil
	}
	name := t.dirEntryName(id)
	hdr := tar.Header{
		Typeflag: tar.TypeDir,
		Name:     name,
		Mode:     int64(t.opts.DirPerm & fs.ModePerm),
		Uid:      t.opts.UID,
		Gid:      t.opts.GID,
		ModTime:  t.opts.ModTime,
	}
	if err := t.tw.WriteHeader(&hdr); err != nil {
		return "", fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return name, nil
}

// writeFileHeader emits one file entry's header and returns the entry name;
// the caller supplies exactly f.Size body bytes (generated or copied).
func (t *tarWriter) writeFileHeader(f fsimage.File) (string, error) {
	if err := t.ctx.Err(); err != nil {
		return "", err
	}
	name := t.fileEntryName(f)
	hdr := tar.Header{
		Typeflag: tar.TypeReg,
		Name:     name,
		Size:     f.Size,
		Mode:     int64(t.opts.FilePerm & fs.ModePerm),
		Uid:      t.opts.UID,
		Gid:      t.opts.GID,
		ModTime:  t.opts.ModTime,
	}
	if err := t.tw.WriteHeader(&hdr); err != nil {
		return "", fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return name, nil
}

// TarSink is the streaming tar materializer: a RecordSink that serializes
// the canonical record stream into one POSIX tar archive with purely
// sequential writes. File content is generated by Options.Parallelism
// workers ahead of the writer, so an entry reaches w (and OnDigest) during
// a later AddFile or Close than the one that submitted it; w is only ever
// written from the goroutine making those calls. Close writes the
// end-of-archive trailer; the emitted bytes are a pure function of the
// record stream and Options. A method that returns an error has stopped
// the workers: a failed sink needs no Close.
type TarSink struct {
	t  *tarWriter
	ts fsimage.TreeSink
}

// NewTarSink starts a tar serialization onto w. opts.Seed must carry the
// content seed (there is no image to default from).
func NewTarSink(w io.Writer, opts Options) *TarSink {
	return &TarSink{t: newTarWriter(w, opts)}
}

// AddDir appends the next directory entry.
func (s *TarSink) AddDir(d fsimage.DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return s.t.body.fail(err)
	}
	s.t.tree = s.ts.Tree()
	if _, err := s.t.writeDirHeader(d.ID); err != nil {
		return s.t.body.fail(err)
	}
	return nil
}

// AddFile appends the next file entry; its header and generated content
// follow the entries queued before it.
func (s *TarSink) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return s.t.body.fail(err)
	}
	return s.t.body.add(f)
}

// Close writes the entries still queued, then the tar trailer, and
// flushes. The sink must not be used afterwards.
func (s *TarSink) Close() error {
	if err := s.t.body.finish(); err != nil {
		return err
	}
	if err := s.t.tw.Close(); err != nil {
		return fmt.Errorf("imgfmt: closing tar stream: %w", err)
	}
	if err := s.t.bw.Flush(); err != nil {
		return fmt.Errorf("imgfmt: flushing tar stream: %w", err)
	}
	return nil
}

// Written returns the content bytes written so far (header and padding
// overhead excluded — comparable to Materialize's return).
func (s *TarSink) Written() int64 { return s.t.body.written }

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
	t := newTarWriter(w, opts)
	t.tree = tree
	for _, id := range dirs {
		if _, err := t.writeDirHeader(id); err != nil {
			return 0, err
		}
	}
	for _, f := range files {
		if err := t.body.add(f); err != nil {
			return t.body.written, err
		}
	}
	if err := t.body.finish(); err != nil {
		return t.body.written, err
	}
	// Flush pads the final entry to its block boundary without writing the
	// end-of-archive trailer — the truncated-at-EOF segment form.
	if err := t.tw.Flush(); err != nil {
		return t.body.written, fmt.Errorf("imgfmt: flushing tar segment: %w", err)
	}
	if err := t.bw.Flush(); err != nil {
		return t.body.written, fmt.Errorf("imgfmt: flushing tar segment: %w", err)
	}
	return t.body.written, nil
}
