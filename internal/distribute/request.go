package distribute

import (
	"context"
	"fmt"
	"io"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// PlanRequest is the single entry point for building plans: one request
// struct instead of a growing family of positional-argument functions. The
// zero values of everything but Config are valid — a bare
// PlanRequest{Config: cfg, MaxShards: k} reproduces the classic BuildPlan.
type PlanRequest struct {
	// Config is the image configuration the plan describes.
	Config core.Config

	// MaxShards is the number of balanced subtree shards the namespace is
	// partitioned into (one worker per shard). When Partition is set it may
	// be left zero (Partition supplies the count) or must equal Partition —
	// fragments are shard documents, so the two knobs name the same cut.
	MaxShards int

	// ChunkSize sets the metadata records per serialized chunk; 0 selects
	// fsimage.DefaultChunkSize.
	ChunkSize int

	// Partition, when > 0, selects partitioned planning: PartitionPlan (and
	// the serve layer) emit the plan as Partition independent fragments —
	// one self-contained shard document each — instead of one monolithic
	// document. For BuildPlan and Stream it simply fixes the shard count:
	// the resulting plan header is identical to MaxShards = Partition, so
	// fragments and monolithic documents interoperate freely.
	Partition int

	// Spill, when non-empty, routes the metadata pass through file-backed
	// columns under this directory (core.Config.SpillDir): the single-node
	// fallback that bounds the planner's live heap by O(dirs) when no fleet
	// is available. Only streaming consumers accept it — BuildPlan rejects
	// a spilled request because retaining the image would defeat the spill.
	Spill string
}

// shardCount resolves the effective shard count from MaxShards/Partition.
func (r PlanRequest) shardCount() (int, error) {
	if r.Partition > 0 {
		if r.MaxShards != 0 && r.MaxShards != r.Partition {
			return 0, fmt.Errorf("distribute: PlanRequest.MaxShards %d conflicts with Partition %d — fragments are shard documents, the counts must agree (%w)",
				r.MaxShards, r.Partition, fsimage.ErrInvalidSpec)
		}
		return r.Partition, nil
	}
	return r.MaxShards, nil
}

// config returns the core config with the request's spill knob applied.
func (r PlanRequest) config() core.Config {
	cfg := r.Config
	cfg.SpillDir = r.Spill
	return cfg
}

// BuildPlan runs the metadata pass for the request and partitions the
// result into balanced subtree shards (oversized subtrees are cut at deeper
// levels, so one worker per shard holds even when the generative model
// concentrates the namespace under a few top-level directories). The
// returned plan retains the image, so it can be Opened and executed
// in-process without a decode round trip; pipelines that only need the plan
// file use PlanRequest.Stream, and fleets that want the plan itself built
// shard by shard use PartitionPlan — neither ever holds the image.
func BuildPlan(ctx context.Context, req PlanRequest) (*Plan, error) {
	if req.Spill != "" {
		return nil, fmt.Errorf("distribute: spilled plan builds need a streaming consumer (PlanRequest.Stream or PartitionPlan); the retained image would defeat the spill")
	}
	sp, err := sealPlan(ctx, req)
	if err != nil {
		return nil, err
	}
	defer sp.meta.Close()
	if sp.plan.img, err = sp.meta.Image(); err != nil {
		return nil, err
	}
	return sp.plan, nil
}

// Stream is the generator-fused planner: it resolves the metadata pass,
// partitions the namespace, and writes the complete plan document to w in
// one streaming pass — spec → metadata columns → chunk encoder — holding
// O(chunk) live file records and never an image. The plan bytes are
// byte-identical to BuildPlan(ctx, r).Encode for the same request, so
// manifests produced against either are interchangeable. The returned plan
// is sealed (fingerprintable) but retains no image; Open it via a decode
// (LoadPlan / LoadPlanShard) if execution state is needed.
//
// The metadata pass honors ctx, so a server can abandon a plan build whose
// requester is gone. On cancellation the partially written document is
// abandoned mid-stream — callers staging into a store must not commit it.
func (r PlanRequest) Stream(ctx context.Context, w io.Writer) (*Plan, error) {
	shards, err := r.shardCount()
	if err != nil {
		return nil, err
	}
	m, err := resolvePlanMetadata(ctx, r.config(), shards)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p, _, err := planScaffold(m, shards, r.ChunkSize)
	if err != nil {
		return nil, err
	}
	if p.Chunks, p.ImageSHA256, err = writeDocument(w, planDoc, p, p.ChunkSize, m.StreamRecords); err != nil {
		return nil, err
	}
	return p, nil
}
