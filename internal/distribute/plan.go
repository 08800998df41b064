// Package distribute implements multi-node generation of file-system
// images as a shard-plan / worker / merge pipeline:
//
//   - BuildPlan / PlanRequest.Stream run the (cheap) metadata pass once —
//     directory skeleton, constrained file sizes, extensions, placement —
//     and partition the namespace into balanced subtree shards, each
//     carrying its stable RNG stream key. The partition and per-shard expectations
//     are computed from the compact namespace tree and streaming per-shard
//     accumulators, never from a retained file slice. A plan serializes as
//     one JSON document whose image metadata streams through hash-guarded
//     chunks, so encoding and decoding buffer O(chunk) bytes; Stream fuses
//     generation and encoding so the producer side too holds O(chunk) file
//     records (BuildPlan additionally retains the image for in-process
//     pipelines).
//   - Execute is the one shard executor. It runs one shard in total
//     isolation — it needs only the shard's view of the plan — runs the
//     expensive content pass, and emits a Manifest recording per-file content
//     hashes. What varies is the Target the bytes go to: a directory
//     (through fsimage's one VFS writer; resumable from a journal when
//     WorkerOptions.JournalPath is set), a tar segment, or io.Discard when
//     only the manifest is wanted. The manifest is the same for all of them.
//     Workers share nothing, so "multi-node" is any shared-nothing fleet:
//     processes, containers, CI jobs, or machines. A worker decodes the plan
//     through the shard-pruning path (LoadPlanShard), retaining only its own
//     shard's file records — its memory is bounded by its shard, not the
//     image.
//   - Merge stitches the manifests back into a single image + report,
//     verifying count, byte, and hash invariants, and computes the canonical
//     image digest. Audit is the fault-tolerant entry point: it grades an
//     incomplete manifest set shard by shard so a failed run can be resumed
//     instead of restarted.
//
// Wire documents. A plan document and a shard document (a plan fragment is
// a shard document) are one shape,
//
//	{<head>: {...}, <array>: [chunk, ...], "trailer": {"chunks": n, <chain>: hex}}
//
// keyed "header"/"chunks"/"image_sha256" around the Plan itself, or
// "view"/"records"/"records_sha256" around a shard index, the plan's
// trailer-sealed fields and the Plan, with an array that carries every
// directory but only that shard's files. The chunks are fsimage.Chunk,
// each guarded by a hash and all of them by the chain hash; the trailer
// comes last because the chain is known only after the last chunk, which is
// what lets a fused pass stream a document it never holds. One writer
// (docWriter) renders both, and whatever reads bytes this process did not
// just write goes through four checks: readDocument walks the envelope,
// verifies every chunk and the trailer and demands the input end there;
// checkHeader holds the plan header to this build (format version, digest
// algorithm, content kind, stream keys — ErrPlanVersion) and to itself
// (counts, shard table, sums — ErrManifestIntegrity); recordCheck holds the
// record stream to that header (canonical records, rebuilt partition, every
// shard's expectations) under the retention policies of DecodePlanShard,
// of DecodeShardView and MergeFragments, and of Open; checkManifest and
// checkEntry hold a manifest to the plan. Asking for a shard the plan does
// not have is ErrInvalidSpec; nothing else a damaged artifact can cause is
// untyped, and no count a document states is allocated before the records
// that bear it out have arrived.
//
// The headline invariant, enforced by tests and CI: for a fixed seed,
// plan → K workers → merge produces an image byte-identical to a
// single-process run, for any K — even across worker failures, retries and
// resumed runs, and regardless of whether the plan was built retained or
// streamed. This holds because every RNG stream is a pure function of the
// master seed and a stable key (see stats.StreamKey), never of process or
// worker identity, and because a shard's output is only trusted once its
// sealed manifest verifies against the plan fingerprint.
package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// FormatVersion is the plan/manifest wire-format version. Workers refuse
// plans from a different major format. Version 2 replaced the single
// embedded image blob with the chunked metadata stream; version 3 moved the
// stream's chunk count and chain hash into a trailer, so a fused
// generate-and-encode pass can write a plan without ever holding the image.
const FormatVersion = 3

// ShardPlan describes one shard of the partitioned namespace.
type ShardPlan struct {
	// Index is the shard's position in Plan.Shards.
	Index int `json:"index"`
	// StreamKey is the stable RNG stream key (stats.StreamKey textual form)
	// of the content stream root; per-file streams are idx:<fileID> children
	// of it. Workers validate it instead of assuming this build's constant.
	StreamKey string `json:"stream_key"`
	// Roots lists the cut-set subtree roots owned by this shard. Roots may
	// sit at any depth (the balanced partitioner cuts dominant subtrees
	// below the top level, and a split directory appears as a singleton
	// root); a directory belongs to the shard of its nearest
	// ancestor-or-self in the cut set. Together with the embedded image the
	// roots fully determine the partition (namespace.PartitionFromRoots).
	Roots []int `json:"roots"`
	// Dirs / Files / Bytes are the expected shard totals, verified against
	// the worker's manifest at merge time.
	Dirs  int   `json:"dirs"`
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
}

// Plan is the serializable unit of work distribution: the fully resolved
// image metadata plus the shard partition. It is self-contained — a worker
// needs nothing but the plan file and its shard index.
//
// On the wire it is the header of a plan document (see the package comment):
// Encode, PlanRequest.Stream and DecodePlan process the chunks one at a time,
// so peak memory for the serialized metadata is O(chunk) at any image size.
type Plan struct {
	FormatVersion int    `json:"format_version"`
	Seed          int64  `json:"seed"`
	ContentKind   string `json:"content_kind"`
	// DigestAlgo names the canonical image-digest formula manifests feed.
	DigestAlgo string `json:"digest_algo"`
	Files      int    `json:"files"`
	Dirs       int    `json:"dirs"`
	Bytes      int64  `json:"bytes"`
	// Spec is the image's reproducibility spec.
	Spec fsimage.Spec `json:"spec"`
	// ChunkSize is the metadata records-per-chunk the stream was sliced by.
	ChunkSize int `json:"chunk_size"`
	// Chunks is the number of metadata chunks in the stream. It lives in the
	// wire trailer, not the header: the producer knows it only after the
	// last chunk is sealed.
	Chunks int `json:"-"`
	// ImageSHA256 chains the per-chunk record hashes
	// (fsimage.ChunkHashChain), guarding the whole metadata stream. Like
	// Chunks it is sealed by the wire trailer.
	ImageSHA256 string      `json:"-"`
	Shards      []ShardPlan `json:"shards"`

	// img is the retained image metadata: populated by BuildPlan on the
	// producing side and rebuilt chunk by chunk by DecodePlan on the
	// consuming side. PlanRequest.Stream leaves it nil — the streamed
	// producer never holds the image. It never appears in the wire JSON.
	img *fsimage.Image
}

// contentStreamKey is the stream key every shard records for the content
// pass. It is data, not just code: workers apply/validate what the plan
// says rather than assuming their own constant.
func contentStreamKey() stats.StreamKey {
	return stats.StreamKey{stats.ForkStep(fsimage.MaterializeStreamLabel)}
}

// resolvePlanMetadata validates cfg and runs the columnar metadata pass
// with disk simulation forced off (plans describe images; the expensive
// content pass is the workers' job).
func resolvePlanMetadata(ctx context.Context, cfg core.Config, maxShards int) (*core.Metadata, error) {
	if maxShards < 1 {
		return nil, fmt.Errorf("distribute: shard count %d < 1 (%w)", maxShards, fsimage.ErrInvalidSpec)
	}
	cfg.SimulateDisk = false
	cfg.LayoutScore = 1.0
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	m, err := gen.ResolveMetadataContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("distribute: metadata pass: %w", err)
	}
	return m, nil
}

// planScaffold partitions the resolved metadata and assembles the plan
// header: every field except the trailer-sealed chunk count and chain hash.
// The partition is computed from the compact tree, and the per-shard
// file/byte expectations from a streaming accumulator over the placement
// columns — no file records are materialized here.
func planScaffold(m *core.Metadata, maxShards, chunkSize int) (*Plan, *namespace.Partition, error) {
	if chunkSize <= 0 {
		chunkSize = fsimage.DefaultChunkSize
	}
	part := namespace.PartitionBalanced(m.Tree(), maxShards, fsimage.ShardWeight)
	acc := namespace.NewShardAccumulator(part)
	if err := m.EachPlacement(func(_, dirID int, size int64) error { acc.Add(dirID, size); return nil }); err != nil {
		return nil, nil, fmt.Errorf("distribute: accumulating shard expectations: %w", err)
	}
	key := contentStreamKey().String()
	shards := make([]ShardPlan, part.Len())
	for s := range shards {
		shards[s] = ShardPlan{
			Index:     s,
			StreamKey: key,
			Roots:     part.ShardRoots(s),
			Dirs:      len(part.Shards[s]),
			Files:     acc.Files(s),
			Bytes:     acc.Bytes(s),
		}
	}
	spec := m.Spec()
	return &Plan{
		FormatVersion: FormatVersion,
		Seed:          spec.Seed,
		ContentKind:   spec.ContentKind,
		DigestAlgo:    fsimage.DigestVersion,
		Files:         m.FileCount(),
		Dirs:          m.DirCount(),
		Bytes:         m.TotalBytes(),
		Spec:          spec,
		ChunkSize:     chunkSize,
		Shards:        shards,
	}, part, nil
}

// Encode writes the retained plan as its JSON document: header, metadata
// chunks streamed one at a time, sealing trailer. Peak buffering is one
// chunk.
func (p *Plan) Encode(w io.Writer) error {
	if p.img == nil {
		return fmt.Errorf("distribute: plan holds no image metadata to encode")
	}
	chunks, chain, err := writeDocument(w, planDoc, p, p.ChunkSize, p.img.StreamRecords)
	if err != nil {
		return err
	}
	// Guard against the image having been mutated after BuildPlan sealed
	// the plan: the streamed chunks must chain to the recorded hash.
	if chain != p.ImageSHA256 || chunks != p.Chunks {
		return fmt.Errorf("distribute: plan metadata changed since it was sealed (chain %s over %d chunks, plan says %s over %d) (%w)",
			chain, chunks, p.ImageSHA256, p.Chunks, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// DecodePlan reads a plan previously written by Encode or PlanRequest.Stream,
// verifying each metadata chunk's integrity hash and rebuilding the image
// incrementally — the serialized metadata is never held in memory whole.
// Open validates the decoded plan's shard expectations and unpacks the
// partition. Workers that only need one shard use DecodePlanShard instead
// and never rebuild the image.
func DecodePlan(r io.Reader) (*Plan, error) {
	var builder *fsimage.ImageSink
	p, err := readDocument(r, planDoc, func(hdr *Plan, _ int) (fsimage.RecordSink, error) {
		builder = fsimage.NewImageSink(hdr.Spec)
		return builder, nil
	})
	if err != nil {
		return nil, err
	}
	if p.img, err = builder.Image(); err != nil {
		return nil, fmt.Errorf("distribute: embedded image: %v (%w)", err, fsimage.ErrManifestIntegrity)
	}
	return p, nil
}

// LoadPlan reads and opens a plan file.
func LoadPlan(path string) (*OpenPlan, error) {
	p, err := loadFile(path, DecodePlan)
	if err != nil {
		return nil, err
	}
	return p.Open()
}

// loadFile decodes the artifact in the file at path.
func loadFile[T any](path string, decode func(io.Reader) (*T, error)) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	return decode(f)
}

// Fingerprint returns a SHA-256 (hex) over every field of the plan that
// determines worker output. Manifests record it, binding each manifest to
// the exact plan it was executed against; merge rejects any mismatch.
func (p *Plan) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-plan-v%d\nseed:%d\ncontent:%s\nalgo:%s\ndirs:%d files:%d bytes:%d\nimage:%s\n",
		p.FormatVersion, p.Seed, p.ContentKind, p.DigestAlgo, p.Dirs, p.Files, p.Bytes, p.ImageSHA256)
	for _, s := range p.Shards {
		fmt.Fprintf(h, "shard:%d key:%s dirs:%d files:%d bytes:%d roots:", s.Index, s.StreamKey, s.Dirs, s.Files, s.Bytes)
		for _, r := range s.Roots {
			fmt.Fprintf(h, "%d,", r)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OpenPlan is a validated, unpacked plan: the decoded image, the rebuilt
// partition, and the per-shard file lists.
type OpenPlan struct {
	Plan  *Plan
	Image *fsimage.Image
	Part  *namespace.Partition
	// FilesByShard lists each shard's file indices in ascending order.
	FilesByShard [][]int
}

// Open validates the plan — the header through checkHeader, then the
// retained image replayed through the same recordCheck a decoded stream
// goes through: directory count, partition reconstruction, every shard's
// expectations — and unpacks it for execution. The metadata's chunk-level
// integrity is verified earlier, by DecodePlan.
func (p *Plan) Open() (*OpenPlan, error) {
	if err := checkHeader(p); err != nil {
		return nil, err
	}
	if p.img == nil {
		return nil, fmt.Errorf("distribute: plan holds no image metadata (not produced by BuildPlan or DecodePlan)")
	}
	c := newRecordCheck(p, allShards, false)
	if err := p.img.StreamRecords(c.ts); err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return &OpenPlan{Plan: p, Image: p.img, Part: c.part, FilesByShard: c.byShard}, nil
}
