package distribute

import (
	"context"
	"fmt"
	"io"

	"impressions/internal/core"
)

// PlanRequest is the single entry point for building plans: one request
// struct instead of a growing family of positional-argument functions. The
// zero values of everything but Config are valid — a bare
// PlanRequest{Config: cfg, MaxShards: k} reproduces the classic BuildPlan.
// Which builder takes it decides the product: BuildPlan retains the image,
// Stream writes the monolithic document, PartitionPlan writes MaxShards
// fragments — one self-contained shard document each, under the same plan
// header, so fragments and monolithic documents interoperate freely.
type PlanRequest struct {
	// Config is the image configuration the plan describes. With
	// Config.SpillDir set the metadata pass runs through file-backed columns
	// under that directory: the single-node fallback that bounds the
	// planner's live heap by O(dirs) when no fleet is available. Only the
	// streaming builders accept it — BuildPlan rejects a spilled request
	// because retaining the image would defeat the spill.
	Config core.Config

	// MaxShards is the number of balanced subtree shards the namespace is
	// partitioned into (one worker per shard).
	MaxShards int

	// ChunkSize sets the metadata records per serialized chunk; 0 selects
	// fsimage.DefaultChunkSize.
	ChunkSize int
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
	if req.Config.SpillDir != "" {
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
	m, err := resolvePlanMetadata(ctx, r.Config, r.MaxShards)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p, _, err := planScaffold(m, r.MaxShards, r.ChunkSize)
	if err != nil {
		return nil, err
	}
	if p.Chunks, p.ImageSHA256, err = writeDocument(w, planDoc, p, p.ChunkSize, m.StreamRecords); err != nil {
		return nil, err
	}
	return p, nil
}
