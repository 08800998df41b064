// Package imgfmt serializes the canonical image record stream straight
// into image files — archive and filesystem formats — with large writes,
// each at its offset: no kernel VFS round-trips, no mkfs, no root.
//
// Every sink here puts its files through fsimage.ImageBody, the image-file
// destination of the body engine the VFS writer runs too
// (internal/fsimage/body.go); this package holds what is an archive's own:
// the tar header framing, the squashfs tables, the stitcher. Where the VFS
// writer pays one open/write/close per file, these sinks are bound by the
// content engine and SHA-256 on Options.Parallelism cores: the tar header,
// the content and its hash, the padding and the file's digest entry are
// the workers', each writing its 128 KiB chunks where they go in the
// image. A digest fold set as opts.Fold takes the directories of the tree
// the sink rebuilds to name its entries; Digest shows its use.
//
// Two backends ship:
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
//     directory tree plus per-file integer columns. ExtractSquashfs is the
//     matching in-repo reader used by tests (and anyone without mount
//     privileges) to extract the produced image.
//
// Determinism: every file's content comes from its stream in
// fsimage.ContentStreams, the frozen materialize contract, so a tar body, a
// squashfs data block, a VFS file, a digest pass, the search indexer's crawl
// and the Table 6 experiment all see the same bytes for the same file.
package imgfmt

import (
	"io"
	"time"

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

// Options is fsimage.MaterializeOptions, the options of the one body
// engine: every field means what it means to the VFS writer. The sinks take
// opts.Seed as given, hold one 128 KiB chunk per worker whatever the file
// sizes (and in order, on a destination that cannot seek, copies of up to
// four more), and on cancellation leave an image with bytes missing.
type Options = fsimage.MaterializeOptions

// zeroBlock feeds what the sinks pad with.
var zeroBlock [squashfsPad]byte

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
	opts.Fold = fsimage.NewDigestFold(src.DirCount(), src.FileCount(), src.TotalBytes())
	sink := NewTarSink(io.Discard, opts)
	if err := src.StreamRecords(sink); err != nil {
		return "", err
	}
	if err := sink.Close(); err != nil {
		return "", err
	}
	return opts.Fold.Sum()
}
