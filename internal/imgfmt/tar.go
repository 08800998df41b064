package imgfmt

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// tarWriter is the calling goroutine's half of every tar-producing path —
// the monolithic TarSink, the per-shard WriteSegment, and the Stitcher: the
// buffered destination, and the directory entries (for the Stitcher the
// file entries too) written to it through the shared header builder. File
// entries of the first two are framed by the body workers, through the same
// builder.
type tarWriter struct {
	bw      *bufio.Writer
	ctx     context.Context
	headers *tarHeaders
	// tree is the full image tree entry names are built from; the owner
	// sets it before the first header (TarSink as it grows).
	tree *namespace.Tree
	// name and hdr hold the entry being written, reused from one to the next.
	name, hdr []byte
}

func newTarWriter(w io.Writer, opts Options) *tarWriter {
	return &tarWriter{
		bw:      bufio.NewWriterSize(fullWriter{w}, 64*1024),
		ctx:     opts.ctx(),
		headers: newTarHeaders(),
	}
}

// bodies starts the engine that frames and generates t's file entries.
func (t *tarWriter) bodies(opts Options) *bodyEngine {
	e := newBodyEngine(opts, func(p []byte) error { _, err := t.bw.Write(p); return err })
	e.headers = t.headers
	return e
}

// writeHeader emits the header of the entry named t.name.
func (t *tarWriter) writeHeader(tpl *tarTemplate, size int64) error {
	var err error
	if t.hdr, err = tpl.append(t.hdr[:0], t.name, size); err != nil {
		return err
	}
	if _, err := t.bw.Write(t.hdr); err != nil {
		return fmt.Errorf("imgfmt: writing tar header for %q: %w", t.name, err)
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
	t.name = append(t.tree.AppendPath(t.name[:0], id), '/')
	return t.name, t.writeHeader(&t.headers.dir, 0)
}

// writeFileHeader emits one file entry's header and returns the entry name,
// valid until the next header; the caller supplies exactly f.Size body bytes
// and their padding.
func (t *tarWriter) writeFileHeader(f fsimage.File) ([]byte, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	t.name = fsimage.AppendFilePath(t.name[:0], t.tree, f)
	return t.name, t.writeHeader(&t.headers.file, f.Size)
}

// finish flushes the stream behind trailer zero bytes: the two blocks that
// end an archive, or none for a segment.
func (t *tarWriter) finish(trailer int) error {
	if _, err := t.bw.Write(zeroBlock[:trailer]); err != nil {
		return fmt.Errorf("imgfmt: writing tar trailer: %w", err)
	}
	if err := t.bw.Flush(); err != nil {
		return fmt.Errorf("imgfmt: flushing tar stream: %w", err)
	}
	return nil
}

// TarSink is the streaming tar materializer: a RecordSink that serializes
// the canonical record stream into one POSIX tar archive with purely
// sequential writes. File entries — header, generated content, padding —
// are put together by Options.Parallelism workers ahead of the writer, so
// an entry reaches w (and OnDigest) during a later AddFile or Close than
// the one that submitted it; w is only ever written from the goroutine
// making those calls, a chunk of finished entries at a time. Close writes the
// end-of-archive trailer; the emitted bytes are a pure function of the
// record stream and Options. A method that returns an error has stopped
// the workers: a failed sink needs no Close.
type TarSink struct {
	t    *tarWriter
	body *bodyEngine
	ts   fsimage.TreeSink
}

// NewTarSink starts a tar serialization onto w. opts.Seed must carry the
// content seed (there is no image to default from).
func NewTarSink(w io.Writer, opts Options) *TarSink {
	opts = opts.withDefaults()
	t := newTarWriter(w, opts)
	return &TarSink{t: t, body: t.bodies(opts)}
}

// AddDir appends the next directory entry.
func (s *TarSink) AddDir(d fsimage.DirRecord) error {
	if err := s.ts.AddDir(d); err != nil {
		return s.body.fail(err)
	}
	s.t.tree = s.ts.Tree()
	s.body.addDir(s.t.tree, d.ID)
	if _, err := s.t.writeDirHeader(d.ID); err != nil {
		return s.body.fail(err)
	}
	return nil
}

// AddFile appends the next file entry; its header and generated content
// follow the entries queued before it.
func (s *TarSink) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return s.body.fail(err)
	}
	return s.body.add(f)
}

// Close writes the entries still queued, then the tar trailer, and
// flushes. The sink must not be used afterwards.
func (s *TarSink) Close() error {
	if err := s.body.finish(); err != nil {
		return err
	}
	return s.t.finish(tarTrailer)
}

// Written returns the content bytes written so far (header and padding
// overhead excluded — comparable to Materialize's return).
func (s *TarSink) Written() int64 { return s.body.written }

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
	opts = opts.withDefaults()
	t := newTarWriter(w, opts)
	t.tree = tree
	for _, id := range dirs {
		if _, err := t.writeDirHeader(id); err != nil {
			return 0, err
		}
	}
	body := t.bodies(opts)
	body.tree = tree
	for _, f := range files {
		if err := body.add(f); err != nil {
			return body.written, err
		}
	}
	if err := body.finish(); err != nil {
		return body.written, err
	}
	// Every entry is padded to its block boundary; a segment is the
	// truncated-at-EOF form, with no end-of-archive trailer behind them.
	return body.written, t.finish(0)
}
