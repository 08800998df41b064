// Package distribute implements multi-node generation of file-system
// images as a shard-plan / worker / merge pipeline:
//
//   - PartitionPlan runs the (cheap) metadata pass once — directory
//     skeleton, constrained file sizes, extensions, placement — partitions
//     the namespace into balanced subtree shards, each carrying its stable RNG
//     stream key, and writes the plan as one fragment per shard: a shard
//     document that carries every directory, that shard's files and the
//     plan header. A FragmentIndex names the fragments and the plan they
//     make up. The partition and per-shard expectations are computed from
//     the compact namespace tree and streaming per-shard accumulators, never
//     from a retained file slice, and the records stream through
//     hash-guarded chunks, so neither a builder nor a reader holds more than
//     O(chunk) file records of the image. PlanRequest.Resolve keeps the
//     metadata columns open behind the written plan
//     (ResolvedPlan.WriteFragments), for a caller that replays its records
//     again.
//   - Execute is the one shard executor. It runs one shard in total
//     isolation — it needs only the shard's view of the plan — runs the
//     expensive content pass, and emits a Manifest recording per-file content
//     hashes. What varies is the Target the bytes go to: a directory
//     (through fsimage's one VFS writer; resumable from a journal when
//     WorkerOptions.JournalPath is set), a tar segment, or io.Discard when
//     only the manifest is wanted. The manifest is the same for all of them.
//     Workers share nothing, so "multi-node" is any shared-nothing fleet:
//     processes, containers, CI jobs, or machines. A worker decodes only its
//     own fragment (DecodeShardView), so its memory is bounded by its shard,
//     not the image. OpenPlanFile takes a plan path in either of its shapes —
//     a fragment index, one shard document — and gives the worker its shard
//     (View) and the merge or the stitcher the whole plan (Source).
//   - Merge is the one merge. It replays a plan from a PlanSource — a set of
//     fragments, or a resolved plan's columns — holds every file to its
//     shard's manifest, grades each shard so a failed run can be resumed
//     instead of restarted, and folds a complete set into the canonical image
//     digest, in one pass over O(dirs + chunk) beside the manifests.
//     ManifestCheck holds one manifest to a plan in O(shards), for a
//     scheduler that commits shards one at a time.
//
// Wire documents. A shard document (a plan fragment) is
//
//	{"view": {...}, "records": [chunk, ...], "trailer": {"chunks": n, "chains": [c0, ..., cK-1]}}
//
// around a shard index and the Plan, with an array that carries every
// directory but only that shard's files. The chunks are fsimage.Chunk, each
// guarded by a hash and all of the document's by its chain hash; the
// trailer seals the plan with the chain hash of every fragment, the same
// list in each, this one's own among them. It comes last because a chain is
// known only after its last chunk, so one pass streams every fragment and
// holds none. The list is the plan's seal: Fingerprint folds
// it, so a fragment whose records differ from the ones its plan was built
// with binds another plan, and a set whose lists differ is no plan at all.
// One writer (docWriter) renders it, and whatever reads bytes this process
// did not just write goes through four checks: readDocument takes the
// document only in the bytes docWriter writes, verifies every chunk, its
// own chain against its entry in the trailer and demands the input end
// there; checkHeader holds the plan
// header to this build (format version, digest algorithm, content kind,
// stream keys — ErrPlanVersion) and to itself (counts, shard table, sums —
// ErrManifestIntegrity); recordCheck holds the record stream to that header
// (canonical records, rebuilt partition, each file in the shard whose
// stream carried it, every shard's expectations) under the retention
// policies of DecodeShardView and of every PlanSource consumer — Merge,
// ManifestCheck, StitchPlanTar and WritePlanTar, through checkPlan — whose
// digest fold and stitcher read the tree and the partition the check
// rebuilt (FragmentSource checks no record: it merges the fragments'
// streams, and holds every other fragment to fragment 0's plan, directory
// chain and chain list); checkManifest and checkEntry hold a manifest to
// the plan. Asking for a shard the plan does not have is ErrInvalidSpec;
// nothing else a damaged artifact can cause is untyped, and no count a
// document states is allocated before the records that bear it out have
// arrived.
//
// The headline invariant, enforced by tests and CI: for a fixed seed,
// plan → K workers → merge produces an image byte-identical to a
// single-process run, for any K — even across worker failures, retries and
// resumed runs. This holds because every RNG stream is a pure function of
// the master seed and a stable key (see stats.DeriveSeed), never of process
// or worker identity, and because a shard's output is only trusted once its
// sealed manifest verifies against the plan fingerprint.
package distribute

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"impressions/internal/fsimage"
)

// FormatVersion is the plan/manifest wire-format version. Workers refuse
// plans from a different major format. Version 2 replaced the single
// embedded image blob with the chunked metadata stream; version 3 moved the
// stream's chunk count and chain hash into a trailer, so a fused
// generate-and-encode pass can write a plan without ever holding the image;
// version 4 seals the plan with the fragments' own chain hashes, in every
// fragment's trailer, instead of one chain over the whole record stream in
// its header, so one pass writes every fragment; version 5 numbers the files
// directory-major.
const FormatVersion = 5

// ShardPlan describes one shard of the partitioned namespace.
type ShardPlan struct {
	// Index is the shard's position in Plan.Shards.
	Index int `json:"index"`
	// StreamKey tags the shard's content stream: always contentStreamKey,
	// "fork:materialize", the plan seed's Fork(fsimage.MaterializeStreamLabel)
	// stream, whose SplitN(fileID) children fill the files. A worker refuses
	// any other tag (ErrPlanVersion) rather than write bytes from a stream
	// this build does not derive.
	StreamKey string `json:"stream_key"`
	// Roots lists the cut-set subtree roots owned by this shard. Roots may
	// sit at any depth (the balanced partitioner cuts dominant subtrees
	// below the top level, and a split directory appears as a singleton
	// root); a directory belongs to the shard of its nearest
	// ancestor-or-self in the cut set. Together with the directory tree the
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
// needs nothing but its fragment.
//
// On the wire it is the plan header every fragment embeds (see the package
// comment): its writer and every reader process the chunks one at a time,
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
	ChunkSize int         `json:"chunk_size"`
	Shards    []ShardPlan `json:"shards"`
	// Chains seals the plan: the chain hash (fsimage.ChunkHashChain) of
	// each fragment's chunks, in shard order. It lives in the wire trailer,
	// not the header: the producer knows it only after the last chunk is
	// sealed.
	Chains []string `json:"-"`
}

// contentStreamKey is the stream tag every shard records for the content
// pass.
const contentStreamKey = "fork:" + fsimage.MaterializeStreamLabel

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
	fmt.Fprintf(h, "impressions-plan-v%d\nseed:%d\ncontent:%s\nalgo:%s\ndirs:%d files:%d bytes:%d\nchains:",
		p.FormatVersion, p.Seed, p.ContentKind, p.DigestAlgo, p.Dirs, p.Files, p.Bytes)
	for _, c := range p.Chains {
		fmt.Fprintf(h, "%s,", c)
	}
	fmt.Fprintln(h)
	for _, s := range p.Shards {
		fmt.Fprintf(h, "shard:%d key:%s dirs:%d files:%d bytes:%d roots:", s.Index, s.StreamKey, s.Dirs, s.Files, s.Bytes)
		for _, r := range s.Roots {
			fmt.Fprintf(h, "%d,", r)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
