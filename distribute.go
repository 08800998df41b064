package impressions

import (
	"context"
	"io"

	"impressions/internal/distribute"
)

// The distributed pipeline's public surface: plan → shard workers → merge,
// re-exported from internal/distribute. The contract is exact determinism —
// for a fixed seed, plan → K workers → merge produces an image
// byte-identical to a single-process Generate, for any K, any process
// placement, and any failure/retry history, because every RNG stream is a
// pure function of the master seed and a stable key.

// Plan is the serializable unit of work distribution: fully resolved image
// metadata plus a balanced subtree partition. Self-contained — a worker
// needs nothing but the plan document and a shard index.
type Plan = distribute.Plan

// ShardView is everything one worker needs to execute a single shard.
type ShardView = distribute.ShardView

// Manifest is a worker's sealed proof of work for one shard.
type Manifest = distribute.Manifest

// WorkerOptions controls one shard execution (parallelism,
// metadata-only mode, the resume journal).
type WorkerOptions = distribute.WorkerOptions

// Target is where Execute sends a shard's bytes.
type Target = distribute.Target

// ShardResult reports one shard execution: the sealed manifest, and how
// many files a journal let the execution skip.
type ShardResult = distribute.ShardResult

// MergeResult is what Merge finds: every shard's grade and, once every shard
// has verified, the merged report and the canonical digest.
type MergeResult = distribute.MergeResult

// PlanSource replays a plan for Merge: a plan document, a set of fragment
// documents, or a resolved plan's columns.
type PlanSource = distribute.PlanSource

// PlanRequest is the single entry point for building plans: configuration
// (spill-to-disk included), sharding and chunking in one request struct
// instead of a family of positional-argument functions.
type PlanRequest = distribute.PlanRequest

// FragmentIndex describes a partitioned plan: the parent fingerprint plus
// the names of its fragment documents.
type FragmentIndex = distribute.FragmentIndex

// PartitionPlan builds a partitioned plan: K self-contained fragment
// documents (byte-identical to slicing the monolithic plan file), written
// to the writers open returns. Combined with Config.SpillDir, the whole
// build runs in O(dirs) live heap regardless of file count.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	return distribute.PartitionPlan(ctx, req, open)
}

// LoadFragmentIndex reads a fragment index file written by `plan -partition`.
func LoadFragmentIndex(path string) (*FragmentIndex, error) {
	return distribute.LoadFragmentIndex(path)
}

// LoadPlanShard reads a plan file through the shard-pruning decoder,
// retaining only the given shard's records — a worker's memory is bounded
// by its shard, never the image.
func LoadPlanShard(path string, shard int) (*ShardView, error) {
	return distribute.LoadPlanShard(path, shard)
}

// DecodeShardView reads a self-contained shard document (as served by
// impressionsd's shard endpoint, or written by ShardView.Encode).
func DecodeShardView(r io.Reader) (*ShardView, error) { return distribute.DecodeShardView(r) }

// DirTarget materializes a shard as real files under outRoot.
func DirTarget(outRoot string) Target { return distribute.DirTarget(outRoot) }

// TarTarget serializes a shard as a tar segment onto w; TarTarget(io.Discard)
// writes nowhere and only proves the content.
func TarTarget(w io.Writer) Target { return distribute.TarTarget(w) }

// Execute runs one shard — its bytes go to the target — and returns the
// sealed manifest, identical for every target and parallelism. Shards
// share nothing; run any number concurrently, in any placement.
func Execute(ctx context.Context, v *ShardView, target Target, opts WorkerOptions) (*ShardResult, error) {
	return distribute.Execute(ctx, v, target, opts)
}

// Merge is the one merge: it replays the plan src delivers, holds every file
// to its shard's manifest, grades each shard verified, invalid or missing —
// so a failed run can be resumed instead of restarted — and folds a complete
// set into the canonical digest, holding O(dirs + chunk) beside the
// manifests.
func Merge(src PlanSource, manifests []*Manifest) (*MergeResult, error) {
	return distribute.Merge(src, manifests)
}

// DocumentSource replays a plan document read from r, for one Merge.
func DocumentSource(r io.Reader) PlanSource { return distribute.DocumentSource(r) }

// FragmentSource replays a partitioned plan from its k fragment documents,
// which open returns readers for, holding O(dirs + k·chunk) memory — no node
// in the partitioned pipeline ever materializes the image.
func FragmentSource(ctx context.Context, k int, open func(shard int) (io.ReadCloser, error)) PlanSource {
	return distribute.FragmentSource(ctx, k, open)
}

// SpecFingerprint returns the content address (SHA-256 hex) of the plan a
// spec resolves to under the given sharding parameters. The spec is
// normalized first, so equivalent specs share an address; plan building is
// deterministic, so equal addresses imply byte-identical plan documents —
// the property impressionsd's plan cache is keyed on.
func SpecFingerprint(spec Spec, maxShards, chunkSize int) (string, error) {
	return distribute.SpecFingerprint(spec, maxShards, chunkSize)
}
