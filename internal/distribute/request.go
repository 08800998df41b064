package distribute

import (
	"context"
	"fmt"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// PlanRequest is the single entry point for building plans: one request
// struct instead of a growing family of positional-argument functions. The
// zero values of everything but Config are valid. PartitionPlan builds the
// plan it describes as MaxShards fragments, one self-contained shard
// document each under the same plan header; Resolve stops before the
// fragments, for a caller that also replays the records (ResolvedPlan).
type PlanRequest struct {
	// Config is the image configuration the plan describes. With
	// Config.SpillDir set the metadata pass runs through file-backed columns
	// under that directory: the single-node fallback that bounds the
	// planner's live heap by O(dirs) when no fleet is available.
	Config core.Config

	// MaxShards is the number of balanced subtree shards the namespace is
	// partitioned into (one worker per shard).
	MaxShards int

	// ChunkSize sets the metadata records per serialized chunk; 0 selects
	// fsimage.DefaultChunkSize.
	ChunkSize int
}

// ResolvedPlan is a plan with the metadata pass it describes still open: the
// header, and the columns its records replay from. PartitionPlan writes its
// fragments and closes it; distrun writes the fragments from one and hands
// the scheduler its Source.
type ResolvedPlan struct {
	// Plan is the plan header; WriteFragments seals its Chunks and
	// ImageSHA256.
	Plan *Plan
	// Meta is the resolved metadata pass.
	Meta *core.Metadata
	part *namespace.Partition
	// parallelism is the request's Config.Parallelism. Each build of the
	// plan's fragments seals their chunks with a sealer of its own at it,
	// and closes it, so neither its goroutines nor its buffers outlive the
	// build.
	parallelism int
}

// Resolve runs the request's metadata pass, with disk simulation forced off
// (plans describe images; the expensive content pass is the workers'), and
// partitions the namespace into balanced subtree shards: oversized subtrees
// are cut at deeper levels, so one worker per shard holds even when the
// generative model concentrates the namespace under a few top-level
// directories. The partition comes from the compact tree, the per-shard
// file and byte expectations from a streaming accumulator over the placement
// columns: no file record is materialized. The metadata pass honors ctx. The
// caller Closes the result.
func (r PlanRequest) Resolve(ctx context.Context) (*ResolvedPlan, error) {
	if r.MaxShards < 1 {
		return nil, fmt.Errorf("distribute: shard count %d < 1 (%w)", r.MaxShards, fsimage.ErrInvalidSpec)
	}
	cfg := r.Config
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
	chunkSize := r.ChunkSize
	if chunkSize <= 0 {
		chunkSize = fsimage.DefaultChunkSize
	}
	part := namespace.PartitionBalanced(m.Tree(), r.MaxShards, fsimage.ShardWeight)
	acc := namespace.NewShardAccumulator(part)
	if err := m.EachPlacement(func(_, dirID int, size int64) error { acc.Add(dirID, size); return nil }); err != nil {
		m.Close()
		return nil, fmt.Errorf("distribute: accumulating shard expectations: %w", err)
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
	return &ResolvedPlan{Plan: &Plan{
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
	}, Meta: m, part: part, parallelism: cfg.Parallelism}, nil
}

// Source replays the sealed plan from the columns: the records its
// fragments carry, without a document in between, as often as it is asked
// to.
func (rp *ResolvedPlan) Source() PlanSource {
	return func(open func(*Plan) (fsimage.RecordSink, error)) error {
		sink, err := open(rp.Plan)
		if err != nil {
			return err
		}
		return rp.Meta.StreamRecords(sink)
	}
}

// Close releases the metadata columns.
func (rp *ResolvedPlan) Close() error { return rp.Meta.Close() }
