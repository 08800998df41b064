package distribute

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
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

// StitchPlanTar replays a plan from src through the record check and merges
// per-shard tar segments (one reader per shard, in shard order) into the
// monolithic archive on w — byte-identical to a single-process tar
// serialization of the same plan. The stitcher writes under the check's
// tree and takes each entry's shard from the partition the check rebuilt,
// so the plan is held to its shard table as a merge holds it. Content bytes
// are copied from the segments, never regenerated; every entry is verified
// against the plan stream, so a segment from a different plan or seed fails
// with fsimage.ErrManifestIntegrity.
func StitchPlanTar(src PlanSource, segments []io.Reader, w io.Writer, opts imgfmt.Options) (*Plan, error) {
	var (
		hdr *Plan
		st  *imgfmt.Stitcher
	)
	if err := checkPlan(src, func(c *recordCheck) error {
		if hdr = c.hdr; len(segments) != len(hdr.Shards) {
			return fmt.Errorf("distribute: %d segments for a plan of %d shards (%w)", len(segments), len(hdr.Shards), fsimage.ErrInvalidSpec)
		}
		opts.Seed = hdr.Seed
		c.onTree = func(_ *Plan, tree *namespace.Tree) error {
			st = imgfmt.NewStitcher(w, tree, segments, opts)
			for id := range tree.Len() {
				if err := st.AddDir(id, c.part.ShardOf(id)); err != nil {
					return err
				}
			}
			return nil
		}
		c.onFile = func(f fsimage.File, shard int) error { return st.AddFile(f, shard) }
		return nil
	}); err != nil {
		return nil, err
	}
	return hdr, st.Close()
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
		fold *fsimage.DigestFold
	)
	err := src(func(hdr *Plan) (fsimage.RecordSink, error) {
		p = hdr
		if registry != nil {
			opts.Registry = registry(hdr.ContentKind)
		} else if opts.Registry == nil {
			opts.Registry = content.NewRegistry(content.Kind(hdr.ContentKind))
		}
		opts.Seed = hdr.Seed
		if !opts.MetadataOnly {
			// The canonical digest is folded in the sink's write pass.
			fold = fsimage.NewDigestFold(hdr.Dirs, hdr.Files, hdr.Bytes)
			imgfmt.FoldDigest(&opts, fold)
		}
		sink = imgfmt.NewTarSink(w, opts)
		return sink, nil
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
