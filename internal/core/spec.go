package core

import (
	"fmt"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// ConfigFromSpec rebuilds a generation Config from a recorded image Spec, so
// a reported spec (or a distributed plan, which embeds one) can be re-run
// without the original command line. Every field the command line sets but
// the size model round-trips exactly: seed, size, counts, tree shape,
// content kind, layout score and the special-directory bias; so does the
// ablation's DisableSizeDepthCoupling, which the spec's "bytes with depth"
// entry names. What does not:
//   - FileSizeDist: the spec records the size model by name only, so an
//     image drawn from another model (-size-mu, -size-sigma) is regenerated
//     from the default one;
//   - SpecialDirectories: the spec records whether the set was used, not
//     the set, so only the default set comes back;
//   - Beta and Lambda: the spec names beta in a display string and lambda
//     not at all, so both come back at their defaults.
//
// Parallelism and SpillDir never change an image, so no spec carries them.
func ConfigFromSpec(spec fsimage.Spec) (Config, error) {
	shape, err := namespace.ParseShape(spec.TreeShape)
	if err != nil {
		return Config{}, fmt.Errorf("core: spec: %v (%w)", err, fsimage.ErrInvalidSpec)
	}
	if spec.NumFiles <= 0 && spec.FSSizeBytes <= 0 {
		return Config{}, fmt.Errorf("core: spec has neither a file count nor a size (%w)", fsimage.ErrInvalidSpec)
	}
	cfg := Config{
		Seed:                     spec.Seed,
		FSSizeBytes:              spec.FSSizeBytes,
		NumFiles:                 spec.NumFiles,
		NumDirs:                  spec.NumDirs,
		TreeShape:                shape,
		ContentKind:              content.Kind(spec.ContentKind),
		LayoutScore:              spec.LayoutScore,
		UseSpecialDirectories:    spec.UseSpecialDirectories,
		DisableSizeDepthCoupling: spec.Distributions["bytes with depth"] == uncoupledBytesWithDepth,
	}
	return cfg, nil
}
