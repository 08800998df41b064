package distribute

import (
	"cmp"
	"context"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// writeTarSegment is Execute's tar target: the same shard contract as the
// directory target, but the shard is serialized as a tar segment
// (sequential writes into one file or pipe) instead of O(shard) files
// through the VFS. The segment is written sequentially, its file content
// generated and hashed by opts.Parallelism workers ahead of the writer; the
// bytes and the digests are identical at every value.
func writeTarSegment(ctx context.Context, v *ShardView, w io.Writer, opts WorkerOptions, digests []string) (int64, error) {
	next := 0
	return imgfmt.WriteSegment(w, v.Tree, v.Dirs, v.Files, imgfmt.Options{
		Registry:     content.NewRegistry(content.Kind(v.Plan.ContentKind)),
		Seed:         v.Plan.Seed,
		MetadataOnly: opts.MetadataOnly,
		Parallelism:  opts.Parallelism,
		Context:      ctx,
		// OnDigest reports v.Files in order, one call each (none with
		// MetadataOnly), so counting fills the shard-local digest slots.
		OnDigest: func(_ fsimage.File, sum string) { digests[next] = sum; next++ },
	})
}

// StitchPlanTar replays a plan from src and merges per-shard tar segments
// (one reader per shard, in shard order) into the monolithic archive on w
// — byte-identical to a single-process tar serialization of the same plan.
// Content bytes are copied from the segments, never regenerated; every
// entry is verified against the plan stream, so a segment from a different
// plan or seed fails with fsimage.ErrManifestIntegrity.
func StitchPlanTar(src PlanSource, segments []io.Reader, w io.Writer, opts imgfmt.Options) (*Plan, error) {
	var (
		p  *Plan
		st *imgfmt.Stitcher
	)
	err := src(func(hdr *Plan) (_ fsimage.RecordSink, err error) {
		p, opts.Seed = hdr, hdr.Seed
		st, err = imgfmt.NewStitcher(w, segments, hdr.shardRoots(), opts)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	return p, st.Close()
}

// WritePlanTar regenerates the full image of the plan src replays as one
// monolithic tar on w and returns the plan and the canonical image digest
// (empty with MetadataOnly — there is no content to attest). registry, when
// non-nil, supplies the content registry for the plan's kind (the daemon
// passes its warm cache); otherwise a fresh registry is built.
// opts.Parallelism workers generate the content.
func WritePlanTar(src PlanSource, w io.Writer, opts imgfmt.Options, registry func(kind string) *content.Registry) (*Plan, string, error) {
	// A plan that fails to replay mid-stream is an error the sink never sees;
	// cancelling its context on the way out is what releases its content
	// workers then (the daemon is long-lived).
	ctx, cancel := context.WithCancel(cmp.Or(opts.Context, context.Background()))
	defer cancel()
	opts.Context = ctx
	var (
		p    *Plan
		sink *imgfmt.TarSink
		fold *imgfmt.DigestFold
	)
	err := src(func(hdr *Plan) (fsimage.RecordSink, error) {
		p = hdr
		if registry != nil {
			opts.Registry = registry(hdr.ContentKind)
		} else if opts.Registry == nil {
			opts.Registry = content.NewRegistry(content.Kind(hdr.ContentKind))
		}
		opts.Seed = hdr.Seed
		if opts.MetadataOnly {
			sink = imgfmt.NewTarSink(w, opts)
			return sink, nil
		}
		// The canonical digest is folded in the write pass, from the sink's
		// in-order OnDigest.
		fold = imgfmt.FoldDigest(&opts, hdr.Dirs, hdr.Files, hdr.Bytes)
		sink = imgfmt.NewTarSink(w, opts)
		return fsimage.MultiSink(sink, fold), nil
	})
	if err != nil {
		return nil, "", err
	}
	if err := sink.Close(); err != nil {
		return nil, "", err
	}
	if fold == nil {
		return p, "", nil
	}
	digest, err := fold.Sum()
	if err != nil {
		return nil, "", err
	}
	return p, digest, nil
}
