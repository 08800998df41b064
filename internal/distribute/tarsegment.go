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
		c.onTree = func(tree *namespace.Tree) error {
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

// WritePlanTar regenerates the full image of the plan src replays, through
// the record check, as one monolithic tar on w and returns the plan and the
// canonical image digest (empty with MetadataOnly — there is no content to
// attest). A plan the check refuses is an error, whatever the archive got
// before. registry, when non-nil, supplies the content registry for the
// plan's kind (the daemon passes its warm cache); otherwise a fresh registry
// is built. opts.Parallelism workers generate the content.
func WritePlanTar(src PlanSource, w io.Writer, opts imgfmt.Options, registry func(kind string) *content.Registry) (*Plan, string, error) {
	// A plan that fails to replay mid-stream is an error the sink never sees;
	// cancelling its context and closing it is what stops and joins its
	// content workers then, which write to w themselves: none may touch w
	// once this returns (the daemon's w is its HTTP response).
	ctx, cancel := context.WithCancel(cmp.Or(opts.Context, context.Background()))
	defer cancel()
	opts.Context = ctx
	var (
		p    *Plan
		sink *imgfmt.TarSink
		fold *fsimage.DigestFold
	)
	if err := checkPlan(src, func(c *recordCheck) error {
		p = c.hdr
		if registry != nil {
			opts.Registry = registry(p.ContentKind)
		} else if opts.Registry == nil {
			opts.Registry = content.NewRegistry(content.Kind(p.ContentKind))
		}
		opts.Seed = p.Seed
		if !opts.MetadataOnly {
			// The canonical digest is folded in the sink's write pass.
			fold = fsimage.NewDigestFold(p.Dirs, p.Files, p.Bytes)
			opts.Fold = fold
		}
		sink = imgfmt.NewTarSink(w, opts)
		c.onDir = sink.AddDir
		c.onFile = func(f fsimage.File, _ int) error { return sink.AddFile(f) }
		return nil
	}); err != nil {
		if sink != nil {
			cancel()
			_ = sink.Close() // fails on the cancelled context, once the workers are joined
		}
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
