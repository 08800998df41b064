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

// OpenPlan is a validated, unpacked plan ready for in-process execution.
type OpenPlan = distribute.OpenPlan

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

// MergeResult is the verified outcome of stitching shard manifests back
// into one image: the image, its report, and the canonical digest.
type MergeResult = distribute.MergeResult

// Audit grades an incomplete manifest set shard by shard, the entry point
// for resuming a partially failed distributed run.
type Audit = distribute.Audit

// PlanRequest is the single entry point for building plans: configuration
// (spill-to-disk included), sharding and chunking in one request struct
// instead of a family of positional-argument functions.
type PlanRequest = distribute.PlanRequest

// FragmentIndex describes a partitioned plan: the parent fingerprint plus
// the names of its fragment documents.
type FragmentIndex = distribute.FragmentIndex

// FragmentMergeResult is the outcome of a fragment-stream merge: the
// canonical digest and verified totals, with no retained image.
type FragmentMergeResult = distribute.FragmentMergeResult

// BuildPlan resolves the metadata pass for the request and partitions it
// into balanced subtree shards, retaining the image for in-process
// execution. Pipelines that only need the plan file use PlanRequest.Stream;
// fleets that want the plan built shard by shard use PartitionPlan.
func BuildPlan(ctx context.Context, req PlanRequest) (*Plan, error) {
	return distribute.BuildPlan(ctx, req)
}

// PartitionPlan builds a partitioned plan: K self-contained fragment
// documents (byte-identical to slicing the monolithic plan file), written
// to the writers open returns. Combined with Config.SpillDir, the whole
// build runs in O(dirs) live heap regardless of file count.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	return distribute.PartitionPlan(ctx, req, open)
}

// MergeFragments verifies a complete set of fragment documents and worker
// manifests and reproduces the canonical image digest while holding
// O(dirs + shards·chunk) memory — no node in the partitioned pipeline ever
// materializes the image.
func MergeFragments(ctx context.Context, open func(shard int) (io.ReadCloser, error), manifests []*Manifest) (*FragmentMergeResult, error) {
	return distribute.MergeFragments(ctx, open, manifests)
}

// LoadFragmentIndex reads a fragment index file written by `plan -partition`.
func LoadFragmentIndex(path string) (*FragmentIndex, error) {
	return distribute.LoadFragmentIndex(path)
}

// LoadPlan reads and opens a plan file for in-process execution.
func LoadPlan(path string) (*OpenPlan, error) { return distribute.LoadPlan(path) }

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

// Merge verifies a complete manifest set against the plan and stitches the
// shards back into a single image, report, and canonical digest.
func Merge(p *OpenPlan, manifests []*Manifest) (*MergeResult, error) {
	return distribute.Merge(p, manifests)
}

// AuditManifests grades a (possibly incomplete, possibly duplicated)
// manifest set shard by shard, so a failed run can be resumed instead of
// restarted.
func AuditManifests(p *OpenPlan, manifests []*Manifest) (*Audit, error) {
	return distribute.AuditManifests(p, manifests)
}

// MergeAudited merges a complete audit's verified manifests.
func MergeAudited(p *OpenPlan, audit *Audit) (*MergeResult, error) {
	return distribute.MergeAudited(p, audit)
}

// SpecFingerprint returns the content address (SHA-256 hex) of the plan a
// spec resolves to under the given sharding parameters. The spec is
// normalized first, so equivalent specs share an address; plan building is
// deterministic, so equal addresses imply byte-identical plan documents —
// the property impressionsd's plan cache is keyed on.
func SpecFingerprint(spec Spec, maxShards, chunkSize int) (string, error) {
	return distribute.SpecFingerprint(spec, maxShards, chunkSize)
}
