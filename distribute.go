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
// needs nothing but its fragment.
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

// PlanSource replays a plan for Merge: a set of fragment documents, or a
// resolved plan's columns. PlanFile.Source is the first at a path.
type PlanSource = distribute.PlanSource

// PlanRequest is the single entry point for building plans: configuration
// (spill-to-disk included), sharding and chunking in one request struct
// instead of a family of positional-argument functions.
type PlanRequest = distribute.PlanRequest

// FragmentIndex describes a plan: its fingerprint plus the names of its
// fragment documents.
type FragmentIndex = distribute.FragmentIndex

// PartitionPlan builds a plan as K self-contained fragment documents, one
// per shard, written to the writers open returns. Combined with
// Config.SpillDir, the whole build runs in O(dirs) live heap regardless of
// file count.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	return distribute.PartitionPlan(ctx, req, open)
}

// PlanFile is a plan path opened for what it holds: the fragment index
// `plan` writes, or one shard document.
type PlanFile = distribute.PlanFile

// OpenPlanFile opens the plan at path in whichever of the two shapes it
// holds. Its View decodes the shard a worker executes, and its Source replays
// the whole plan for Merge or the stitcher — a fragment index through its
// fragments, held to what the index names.
func OpenPlanFile(path string) (*PlanFile, error) { return distribute.OpenPlanFile(path) }

// DecodeShardView reads a self-contained shard document: a plan fragment,
// as PartitionPlan writes it and impressionsd's shard endpoint serves it.
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

// FragmentSource replays a plan from its k fragment documents, which open
// returns readers for, as a k-way merge of their file streams holding
// O(k·chunk) memory and no tree: the consumer's record check holds the one
// tree of the replay, and no node in the pipeline ever materializes the
// image.
func FragmentSource(ctx context.Context, k int, open func(shard int) (io.ReadCloser, error)) PlanSource {
	return distribute.FragmentSource(ctx, k, open)
}

// SpecFingerprint returns the content address (SHA-256 hex) of the plan a
// spec resolves to under the given sharding parameters. The spec is
// normalized first, so equivalent specs share an address; plan building is
// deterministic, so equal addresses imply byte-identical fragments — the
// property impressionsd's plan cache is keyed on.
func SpecFingerprint(spec Spec, maxShards, chunkSize int) (string, error) {
	return distribute.SpecFingerprint(spec, maxShards, chunkSize)
}
