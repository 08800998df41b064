// Package imgfmt serializes the canonical image record stream straight
// into image files — archive and filesystem formats — with purely
// sequential writes: no kernel VFS round-trips, no mkfs, no root.
//
// Where fsimage.MaterializeSink pays one open/write/close per file (so a
// 100k-small-file image is syscall-bound), these sinks are bound by the
// content engine and SHA-256 on Options.Parallelism cores: that many
// workers put file entries together ahead of the one goroutine that writes
// the image (the ordered, bounded pipeline in body.go). Everything that
// costs per entry happens in the workers — the tar header, the content and
// its hash, the padding, the file's line of the canonical digest — so the
// writer is a copy loop, one write per 128 KiB chunk of finished entries,
// and is not what bounds -j on ~1 KB files. A digest fold attached with
// FoldDigest takes the directories' lines from the tree the sink rebuilds
// to name its entries, and the files' from the workers: a digest costs no
// tree of its own. Two backends ship:
//
//   - TarSink streams a POSIX tar whose bytes are a pure function of (spec,
//     seed): entry order is the canonical record order (directories in ID
//     order, then files in ID order) and all VFS-dependent metadata — mtime,
//     uid, gid, permissions — is constant, so the stream is byte-identical
//     at any parallelism. Headers are archive/tar's, byte
//     for byte, but archive/tar formats only two of them per sink: one
//     builder (tarheader.go) has it render a file and a directory header
//     once and patches name, size and checksum into copies. An entry ustar
//     cannot hold — a name that is not ASCII, a path that does not split
//     into ustar's 155-byte prefix and 100-byte name (none over 256 bytes
//     does), or a size of 8 GiB or more — is written by archive/tar itself,
//     on its PAX route. WriteSegment
//     emits one shard's sub-stream as a truncated-at-EOF tar segment, and
//     Stitcher merges per-shard segments back into the identical monolithic
//     archive, rewriting every header through the same builder, so a
//     distributed fleet can produce one tar without any node writing
//     O(image) files. The stitcher holds no tree and knows no partition: its
//     caller, which validates the plan, hands it both.
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
	"runtime"
	"time"

	"impressions/internal/content"
	"impressions/internal/fsimage"
)

// What a kernel would invent for an entry — owner, permissions, timestamp —
// is the same for every entry of every image: image bytes are a pure
// function of (spec, seed), so neither the build's wall clock nor its user
// can leak into an archive, and images mount and extract without any
// host-user dependence.
const (
	dirPerm  = 0o755
	filePerm = 0o644
	ownerID  = 0 // uid and gid
)

// DefaultModTime is the timestamp of every entry: 2009-02-06 00:00:00 UTC,
// the FAST '09 week.
var DefaultModTime = time.Unix(1233878400, 0).UTC()

// Options configures the content engine behind an image file. The zero value
// is usable; every field has the same default the VFS materializer uses.
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
	// Parallelism is the number of workers generating and hashing file
	// content ahead of the writer (0: runtime.NumCPU(), as
	// fsimage.MaterializeOptions has it; 1: one worker). Every file's
	// content comes from a stream keyed by its ID, so the image bytes and
	// the OnDigest sequence are identical at every value. Entries in flight
	// are capped at 512 KiB per worker, whatever the file sizes and counts.
	Parallelism int
	// Context, when non-nil, cancels the serialization: the per-record
	// loops and the workers watch it and abort with its error, leaving a
	// truncated image.
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

	// fold is the digest FoldDigest attached, which the sink feeds as it
	// writes.
	fold *fsimage.DigestFold
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

// FoldDigest attaches fold to opts, for the one sink then made from them: the
// sink folds the canonical image digest (fsimage.DigestVersion) during its
// write pass instead of from a retained per-file digest table — each
// directory's line from the tree the sink rebuilds, each file's line from
// its workers, beside the file's content hash. opts.OnDigest is left as it
// is, and still runs. opts must not be MetadataOnly: without content there
// is nothing to attest. Use it as
//
//	fold := fsimage.NewDigestFold(dirs, files, bytes)
//	imgfmt.FoldDigest(&opts, fold)
//	sink := imgfmt.NewTarSink(w, opts)
//	err := src.StreamRecords(sink)
//	... sink.Close(), then fold.Sum()
func FoldDigest(opts *Options, fold *fsimage.DigestFold) { opts.fold = fold }

// Source is an image's record stream with its totals: a metadata pass
// (core.Metadata), replayed, or a retained image.
type Source interface {
	fsimage.RecordSource
	DirCount() int
	FileCount() int
	TotalBytes() int64
}

// Digest returns the canonical image digest of src without writing an image:
// the records go through a tar sink onto io.Discard, which generates and
// hashes every file on opts.Parallelism workers and keeps nothing, with the
// digest folded in the same pass. It is the route of `impressions -digest`
// and of the daemon's POST /v1/generate.
func Digest(src Source, opts Options) (string, error) {
	fold := fsimage.NewDigestFold(src.DirCount(), src.FileCount(), src.TotalBytes())
	FoldDigest(&opts, fold)
	sink := NewTarSink(io.Discard, opts)
	if err := src.StreamRecords(sink); err != nil {
		return "", err
	}
	if err := sink.Close(); err != nil {
		return "", err
	}
	return fold.Sum()
}
