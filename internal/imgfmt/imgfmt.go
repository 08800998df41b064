// Package imgfmt serializes the canonical image record stream straight
// into image files — archive and filesystem formats — with purely
// sequential writes: no kernel VFS round-trips, no mkfs, no root.
//
// Where fsimage.MaterializeSink pays one open/write/close per file (so a
// 100k-small-file image is syscall-bound), these sinks are bound by the
// content engine and SHA-256 on Options.Parallelism cores: that many
// workers generate and hash file bodies ahead of the one goroutine that
// writes the image (the ordered, bounded pipeline in body.go), until the
// writer's own per-entry work — tar header formatting on ~1 KB files — is
// what is left. Two backends ship:
//
//   - TarSink streams a POSIX tar (archive/tar, USTAR with PAX fallback for
//     long names) whose bytes are a pure function of (spec, seed, Options):
//     entry order is the canonical record order (directories in ID order,
//     then files in ID order) and all VFS-dependent metadata — mtime, uid,
//     gid, permissions — is fixed by Options, so the stream is
//     byte-identical at any parallelism. WriteSegment emits one shard's
//     sub-stream as a truncated-at-EOF tar segment, and Stitcher merges
//     per-shard segments back into the identical monolithic archive, so a
//     distributed fleet can produce one tar without any node writing
//     O(image) files.
//
//   - SquashfsSink writes an uncompressed squashfs v4 image — superblock,
//     data blocks, inode/directory/id tables — that mounts directly with
//     `mount -o loop` (or any squashfs reader), built from the compact
//     directory tree plus per-file integer columns. ReadSquashfsTree is the
//     matching in-repo reader used by tests (and anyone without mount
//     privileges) to walk the produced image.
//
// Determinism: per-file content streams are the frozen materialize
// contract — stats.NewRNG(seed).Fork(fsimage.MaterializeStreamLabel).
// SplitN(fileID) — so a tar body, a squashfs data block, a VFS file, and a
// digest pass all see the same bytes for the same file.
package imgfmt

import (
	"context"
	"io"
	"os"
	"runtime"
	"time"

	"impressions/internal/content"
	"impressions/internal/fsimage"
)

// DefaultModTime is the fixed timestamp stamped on every entry when
// Options.ModTime is zero: 2009-02-06 00:00:00 UTC, the FAST '09 week.
// Image bytes must be a pure function of (spec, seed), so the build's wall
// clock can never leak into an archive.
var DefaultModTime = time.Unix(1233878400, 0).UTC()

// Options fixes everything about an image file that a kernel would
// otherwise invent — ownership, permissions, timestamps — plus the content
// engine configuration. The zero value is usable; every field has the same
// default the VFS materializer uses.
type Options struct {
	// Registry supplies per-extension content generators (nil: the default
	// content policy).
	Registry *content.Registry
	// Seed drives content generation. Sinks have no image to default from,
	// so callers pass the plan or spec seed explicitly.
	Seed int64
	// MetadataOnly writes zero bytes instead of generated content. Entries
	// keep their full size (the archive counterpart of a truncated VFS
	// file), and no content digests are produced.
	MetadataOnly bool
	// DirPerm and FilePerm are the recorded permissions (defaults 0755 and
	// 0644).
	DirPerm  os.FileMode
	FilePerm os.FileMode
	// UID and GID are the recorded owner (default 0:0 — images mount and
	// extract without any host-user dependence).
	UID int
	GID int
	// ModTime is the fixed timestamp for every entry (zero: DefaultModTime).
	ModTime time.Time
	// Parallelism is the number of workers generating and hashing file
	// content ahead of the writer (0: runtime.NumCPU(), as
	// fsimage.MaterializeOptions has it; 1: one worker). Every file's
	// content comes from a stream keyed by its ID, so the image bytes and
	// the OnDigest sequence are identical at every value. Content in flight
	// is capped at 512 KiB per worker, whatever the file sizes and counts.
	Parallelism int
	// Context, when non-nil, cancels the serialization: the per-record
	// loops and the content workers watch it and abort with its error,
	// leaving a truncated image.
	Context context.Context
	// OnDigest, when non-nil, observes each file's content SHA-256 (hex) —
	// the same tap the VFS materializer offers, so archive workers seal
	// ordinary manifests. Not called with MetadataOnly. The contract: once
	// per file, in stream order, on the goroutine that calls the sink's
	// AddFile and Close (never concurrently, so it needs no locking), and
	// after the file's bytes have been written. Because content is
	// generated ahead of the writer the call may come during a later
	// AddFile than the one that submitted the file, but always before Close
	// returns; after a failed AddFile or Close no further calls are made.
	OnDigest func(f fsimage.File, sha256 string)
}

// ctx returns the cancellation context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// withDefaults fills in the option defaults.
func (o Options) withDefaults() Options {
	if o.Registry == nil {
		o.Registry = content.NewRegistry(content.KindDefault)
	}
	if o.DirPerm == 0 {
		o.DirPerm = 0o755
	}
	if o.FilePerm == 0 {
		o.FilePerm = 0o644
	}
	if o.ModTime.IsZero() {
		o.ModTime = DefaultModTime
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// fullWriter holds the sinks' destination to the io.Writer contract: a
// write that comes up short without an error becomes io.ErrShortWrite
// instead of truncating the image silently (or, under bufio, retrying the
// same bytes for ever).
type fullWriter struct{ w io.Writer }

func (f fullWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if n < len(p) && err == nil {
		err = io.ErrShortWrite
	}
	return n, err
}

// DigestFold computes the canonical image digest (fsimage.DigestVersion)
// during the write pass instead of from a retained per-file digest table:
// it is fed the sink's record stream for the directories, and the sink's
// in-order OnDigest for the files. Use it as
//
//	fold := imgfmt.FoldDigest(&opts, dirs, files, bytes)
//	sink := imgfmt.NewTarSink(w, opts)
//	err := src.StreamRecords(fsimage.MultiSink(sink, fold))
//	... sink.Close(), then fold.Sum()
type DigestFold struct {
	b   *fsimage.DigestBuilder
	sum string // the content digest OnDigest is folding
	err error
}

// FoldDigest chains a digest fold onto opts.OnDigest (a callback already
// there still runs) for an image promising the given totals. opts must not
// be MetadataOnly: without content there is nothing to attest.
func FoldDigest(opts *Options, dirs, files int, bytes int64) *DigestFold {
	d := &DigestFold{}
	d.b = fsimage.NewDigestBuilder(dirs, files, bytes, func(fsimage.File) (string, error) { return d.sum, nil })
	prev := opts.OnDigest
	opts.OnDigest = func(f fsimage.File, sum string) {
		if d.err == nil {
			d.sum = sum
			d.err = d.b.AddFile(f)
		}
		if prev != nil {
			prev(f, sum)
		}
	}
	return d
}

// AddDir folds the next directory record.
func (d *DigestFold) AddDir(rec fsimage.DirRecord) error { return d.b.AddDir(rec) }

// AddFile folds nothing — a file enters the digest when the sink reports
// its content hash — but surfaces a fold that has already failed.
func (d *DigestFold) AddFile(fsimage.File) error { return d.err }

// Sum returns the canonical digest once the sink is closed; it fails if the
// sink did not report exactly the promised files.
func (d *DigestFold) Sum() (string, error) {
	if d.err != nil {
		return "", d.err
	}
	return d.b.Sum()
}
