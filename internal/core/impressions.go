package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"impressions/internal/clock"
	"impressions/internal/constraint"
	"impressions/internal/dataset"
	"impressions/internal/disk"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// Result bundles everything one generation run produces: the image, the
// reproducibility report, and (when disk simulation is enabled) the simulated
// disk holding the image's blocks.
type Result struct {
	Image  *fsimage.Image
	Report fsimage.Report
	Disk   *disk.Disk
}

// Generator generates file-system images from a Config. A Generator is
// stateless between runs apart from its configuration; each Generate call
// re-seeds its random streams from the config seed so repeated calls with the
// same config produce identical images.
type Generator struct {
	cfg Config
	// openColumn, when a test sets it, replaces the creation of a spilled
	// column's file.
	openColumn func(path string) (blockFile, error)
}

// NewGenerator validates and normalizes the configuration and returns a
// generator for it.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	normalized, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	// The parents column and the depth lists hold directory IDs and file
	// indices as int32.
	if normalized.NumFiles > math.MaxInt32 || normalized.NumDirs > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d files in %d directories: an image holds at most %d of either (%w)",
			normalized.NumFiles, normalized.NumDirs, math.MaxInt32, fsimage.ErrInvalidSpec)
	}
	return &Generator{cfg: normalized}, nil
}

// Config returns the normalized configuration.
func (g *Generator) Config() Config { return g.cfg }

// Generate runs the full pipeline and returns the generated image, report,
// and optional simulated disk. It is the retained consumer of the columnar
// metadata pass (ResolveMetadata): the records are materialized into an
// in-memory image for the library API. Pipelines that must not hold the
// image use GenerateStream instead.
func (g *Generator) Generate() (*Result, error) {
	return g.GenerateContext(context.Background())
}

// GenerateContext is Generate with cancellation: the sharded metadata phases
// poll ctx between shards and the run aborts with ctx.Err() as soon as every
// in-flight shard callback returns. Cancellation never corrupts state — the
// generator is stateless between runs — it only abandons work, so a server
// handler can cut a disconnected client's generation short.
func (g *Generator) GenerateContext(ctx context.Context) (*Result, error) {
	if g.cfg.SpillDir != "" {
		return nil, fmt.Errorf("core: SpillDir requires a streaming consumer (GenerateStream); the retained image would defeat the spill")
	}
	m, err := g.ResolveMetadataContext(ctx)
	if err != nil {
		return nil, err
	}
	// Materializing the retained image is part of the placement phase's
	// accounting (it is where the file records spring into existence).
	start := clock.Now()
	img, err := m.Image()
	if err != nil {
		return nil, err
	}
	m.phases["file and bytes with depth"] += seconds(start)
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated image failed validation: %w", err)
	}
	res := &Result{Image: img}
	if res.Report, res.Disk, err = m.Report(); err != nil {
		return nil, err
	}
	return res, nil
}

// resolveSizes draws the file-size sample under the N / S constraints into
// the sizes column, which keeps the raw values: readers round them with
// roundSize. The resolver draws a pool straight into the column and, when
// the draw already meets the constraint — every well-sized config — never
// holds it; otherwise it works on the heap and its result is written over
// the column, the documented O(files) corner of a spilled pass (targets far
// from the distribution's expected sum).
func (g *Generator) resolveSizes(rng *stats.RNG, sizes *column[float64]) (constraint.Result, error) {
	cfg := g.cfg
	resolver := constraint.NewResolver(rng)
	resolver.SetParallelism(effectiveParallelism(cfg.Parallelism))
	resolver.SetPoolStorage(poolColumn{sizes})
	result, err := resolver.Resolve(constraint.Problem{
		N:         cfg.NumFiles,
		TargetSum: float64(cfg.FSSizeBytes),
		Dist:      cfg.FileSizeDist,
		Beta:      cfg.Beta,
		Lambda:    cfg.Lambda,
	})
	if err != nil {
		return constraint.Result{}, fmt.Errorf("core: resolving file sizes: %w", err)
	}
	values := result.Values
	result.Values = nil
	if !result.Converged {
		// Fall back to the raw (unconstrained) sample rather than failing:
		// the user asked for an unusual combination (§3.4 notes far-apart
		// desired and expected sums may not converge); report the error so
		// the caller can decide.
		values = stats.SampleN(cfg.FileSizeDist, rng.Fork("fallback"), cfg.NumFiles)
	}
	if values == nil {
		return result, nil // the column holds the draw that met the constraint
	}
	var shard []float64
	for s := 0; s < parallel.Shards(sizes.n); s++ {
		lo, hi := parallel.Bounds(sizes.n, s)
		shard = sizes.shard(s, shard)
		copy(shard, values[lo:hi])
		if err := sizes.store(s, shard); err != nil {
			return constraint.Result{}, err
		}
	}
	return result, nil
}

// roundSize is a file's size in whole non-negative bytes, as every reader of
// the sizes column takes it.
func roundSize(v float64) int64 {
	if v < 0 {
		v = 0
	}
	return int64(math.Round(v))
}

// extOther flags an extension code as three packed base-36 characters, the
// random extension of a file in the table's "others" bucket, rather than an
// index into the table's names.
const extOther = uint32(1) << 31

const extLetters = "abcdefghijklmnopqrstuvwxyz0123456789"

// assignExtensions samples extensions from the dataset's percentile table
// into the codes column; files falling in the "others" bucket receive a
// random three-character extension, exactly as §3.3.2 describes. Files are
// processed in fixed-size shards, each drawing from its own derived stream,
// so the assignment is identical at every parallelism level.
func (g *Generator) assignExtensions(ctx context.Context, rng *stats.RNG, exts *column[uint32]) ([]string, error) {
	table := g.cfg.Dataset.ExtensionsByCount()
	names := table.Names()
	if len(names) >= int(extOther) {
		return nil, fmt.Errorf("core: extension table too large for a 31-bit code (%d names)", len(names))
	}
	err := parallel.Run(ctx, effectiveParallelism(g.cfg.Parallelism), parallel.Shards(exts.n), func(s int) error {
		srng := rng.SplitN(uint64(s))
		codes := exts.shard(s, nil)
		for k := range codes {
			idx := table.SampleIndex(srng)
			codes[k] = uint32(idx)
			if names[idx] == "others" {
				c0, c1, c2 := srng.Intn(len(extLetters)), srng.Intn(len(extLetters)), srng.Intn(len(extLetters))
				codes[k] = extOther | uint32((c0*len(extLetters)+c1)*len(extLetters)+c2)
			}
		}
		return exts.store(s, codes)
	})
	return names, err
}

// extFor decodes an extension code back to the raw extension draw ("null"
// means none).
func (m *Metadata) extFor(code uint32) string {
	if code&extOther == 0 {
		return m.extNames[code]
	}
	v, n := int(code&^extOther), len(extLetters)
	return string([]byte{extLetters[v/(n*n)], extLetters[v/n%n], extLetters[v%n]})
}

// placeFiles assigns every file a parent directory using the multiplicative
// model of §3.3.2, decomposed into two deterministic passes around a
// sequential commit:
//
//  1. Depth pass — for each file, decide whether it lands in a special
//     directory and otherwise choose its namespace depth. Both decisions read
//     only the immutable tree skeleton, so files are processed in fixed-size
//     shards with per-shard RNG streams. The parents column takes the
//     outcome: the special directory's ID, or the depth negated (a file's
//     depth is at least 1) until pass 2 replaces it.
//  2. Commit — in index order, special placements are committed, so every
//     depth level starts from the same directory counters, and every other
//     file's index is appended to its depth level's list.
//  3. Parent pass — one worker per depth level walks its list. A file at
//     depth d picks its parent among directories at depth d-1 only, so
//     workers touch disjoint directory sets while preserving the sequential
//     preferential-attachment dynamics within each depth. Indices ascend
//     within a level, so the walk loads the block an index falls in, patches
//     it, and stores it when the walk leaves it.
//
// Shard boundaries, depth grouping (ascending file index), and every RNG
// stream are functions of the seed and stable shard/depth keys — never of
// worker count or scheduling — so any parallelism level produces the
// identical image.
//
// placeFiles fills m's parents column and emits no records — a file's record
// (name, depth, extension) is derived from the columns at consumption time.
// It also totals the rounded sizes, which the commit loop passes anyway.
// Cancellation is polled per shard and per depth level; on cancellation the
// caller discards the partially filled columns, so an aborted run never
// leaks a half-placed image.
func (g *Generator) placeFiles(ctx context.Context, m *Metadata, rng *stats.RNG) error {
	sizes, parents := m.sizes, m.parents
	placer := namespace.NewPlacer(m.tree, g.placerConfig(m.tree), rng.Fork("placement"))
	workers := effectiveParallelism(g.cfg.Parallelism)

	depthStream := rng.Fork("placement/depth")
	err := parallel.Run(ctx, workers, parallel.Shards(sizes.n), func(s int) error {
		srng := depthStream.SplitN(uint64(s))
		sz, err := sizes.load(s, nil)
		if err != nil {
			return err
		}
		par := parents.shard(s, nil)
		for k := range par {
			if dirID, ok := placer.ChooseSpecial(srng); ok {
				par[k] = int32(dirID)
			} else {
				par[k] = -int32(placer.ChooseDepth(roundSize(sz[k]), srng))
			}
		}
		return parents.store(s, par)
	})
	if err != nil {
		return err
	}

	levels := make([]*column[int32], placer.MaxFileDepth()+1)
	err = scanFiles(ctx, sizes, nil, parents, func(lo int, sz []float64, _ []uint32, par []int32) error {
		for k, p := range par {
			size := roundSize(sz[k])
			m.totalBytes += size
			if p >= 0 {
				placer.Commit(int(p), size)
				continue
			}
			if levels[-p] == nil {
				level, err := newColumn[int32](m.store, fmt.Sprintf("depth-%d.i32", -p), 0)
				if err != nil {
					return err
				}
				levels[-p] = level
			}
			if err := levels[-p].append(int32(lo + k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Two levels can have files in one block of the parents column, which
	// only a column patched in place lets them patch at the same time.
	if !parents.inPlace() {
		workers = 1
	}
	parentStream := rng.Fork("placement/parent")
	return parallel.Run(ctx, workers, len(levels), func(d int) error {
		level := levels[d]
		if level == nil {
			return nil
		}
		if err := level.flush(); err != nil {
			return err
		}
		drng := parentStream.SplitN(uint64(d))
		var (
			sz  []float64
			par []int32
		)
		block := -1 // the shard sz and par hold
		err := level.each(func(files []int32) error {
			for _, i := range files {
				if s := int(i) / parallel.DefaultShardSize; s != block {
					if block >= 0 {
						if err := parents.store(block, par); err != nil {
							return err
						}
					}
					var err error
					if sz, err = sizes.load(s, sz); err != nil {
						return err
					}
					if par, err = parents.load(s, par); err != nil {
						return err
					}
					block = s
				}
				k := int(i) % parallel.DefaultShardSize
				dirID := placer.ChooseParentAt(d-1, drng)
				placer.Commit(dirID, roundSize(sz[k]))
				par[k] = int32(dirID)
			}
			return nil
		})
		if err != nil || block < 0 {
			return err
		}
		return parents.store(block, par)
	})
}

func normalizeExt(ext string) string {
	if ext == "null" {
		return ""
	}
	return ext
}

// placerConfig builds the namespace placer configuration from the config and
// dataset.
func (g *Generator) placerConfig(tree *namespace.Tree) namespace.PlacerConfig {
	cfg := g.cfg
	var meanBytes []float64
	if !cfg.DisableSizeDepthCoupling {
		meanBytes = cfg.Dataset.MeanBytesByDepth()
	}
	maxDepth := 0
	if cfg.TreeShape == namespace.ShapeDeep {
		// Deep trees intentionally exceed the Poisson support; allow files at
		// any depth the tree reaches.
		maxDepth = tree.MaxDepth() + 1
	}
	return namespace.PlacerConfig{
		DepthModel:            stats.NewPoisson(cfg.FileDepthLambda),
		MeanBytesByDepth:      meanBytes,
		DirFileModel:          stats.NewInversePolynomial(cfg.DirFileDegree, cfg.DirFileOffset, 4096),
		UseSpecialDirectories: cfg.UseSpecialDirectories,
		MaxDepth:              maxDepth,
	}
}

// Spec returns the reproducibility spec the generator's normalized
// configuration would record, without generating anything. It is the
// canonical form of the configuration — two configs normalizing to the same
// spec generate identical images — which is what the plan cache keys on
// (distribute.SpecFingerprint) and what clients send to the generation
// service.
func (g *Generator) Spec() fsimage.Spec { return g.buildSpec() }

// buildSpec records the reproducibility spec for the configuration.
func (g *Generator) buildSpec() fsimage.Spec {
	cfg := g.cfg
	constraints := map[string]string{}
	if cfg.FSSizeBytes > 0 {
		constraints["file system used space"] = fmt.Sprintf("%d bytes (beta=%.2f)", cfg.FSSizeBytes, cfg.Beta)
	}
	if cfg.NumFiles > 0 {
		constraints["number of files"] = fmt.Sprintf("%d", cfg.NumFiles)
	}
	if cfg.NumDirs > 0 {
		constraints["number of directories"] = fmt.Sprintf("%d", cfg.NumDirs)
	}
	return fsimage.Spec{
		Seed:                  cfg.Seed,
		FSSizeBytes:           cfg.FSSizeBytes,
		NumFiles:              cfg.NumFiles,
		NumDirs:               cfg.NumDirs,
		TreeShape:             cfg.TreeShape.String(),
		ContentKind:           string(cfg.ContentKind),
		LayoutScore:           cfg.LayoutScore,
		UseSpecialDirectories: cfg.UseSpecialDirectories,
		Distributions:         cfg.DistributionTable(),
		Constraints:           constraints,
	}
}

// GenerateImage is a convenience wrapper: configure, generate, and return the
// result in one call.
func GenerateImage(cfg Config) (*Result, error) {
	return GenerateImageContext(context.Background(), cfg)
}

// GenerateImageContext is GenerateImage with cancellation; see
// Generator.GenerateContext for the semantics.
func GenerateImageContext(ctx context.Context, cfg Config) (*Result, error) {
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return gen.GenerateContext(ctx)
}

// seconds returns the elapsed wall-clock seconds since start, read through
// the sanctioned internal/clock boundary (the determinism contract bans raw
// time.Now/time.Since in this package; see internal/analysis).
func seconds(start time.Time) float64 { return clock.Since(start).Seconds() }

// Dataset returns the dataset backing this generator's defaults.
func (g *Generator) Dataset() *dataset.Dataset { return g.cfg.Dataset }
