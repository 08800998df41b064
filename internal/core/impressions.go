package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"impressions/internal/clock"
	"impressions/internal/constraint"
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// Result bundles everything one generation run produces: the image and the
// reproducibility report, whose AchievedLayoutScore is the simulated disk's.
type Result struct {
	Image  *fsimage.Image
	Report fsimage.Report
}

// Generator generates file-system images from a Config. A Generator is
// stateless between runs apart from its configuration; each Generate call
// re-seeds its random streams from the config seed so repeated calls with the
// same config produce identical images.
type Generator struct {
	cfg Config
	// ds supplies the desired curves generation reads (extension
	// popularity, mean bytes per depth): dataset.Default(), unless a test
	// sets another.
	ds *dataset.Dataset
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
	return &Generator{cfg: normalized, ds: dataset.Default()}, nil
}

// Config returns the normalized configuration.
func (g *Generator) Config() Config { return g.cfg }

// Generate runs the full pipeline and returns the generated image and its
// report. It is the retained consumer of the columnar metadata pass
// (ResolveMetadata): the records are materialized into an in-memory image for
// the library API. Pipelines that must not hold the
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
	// accounting (it is where the file records spring into existence). One
	// replay through a TreeSink validates the records and retains them; the
	// image keeps the generator's tree.
	start := clock.Now()
	img := fsimage.New(m.tree)
	img.Spec = m.spec
	img.Files = make([]fsimage.File, 0, m.FileCount())
	err = m.StreamRecords(fsimage.NewTreeSink(func(f fsimage.File) error {
		img.Files = append(img.Files, f)
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("core: generated image failed validation: %w", err)
	}
	m.phases["file and bytes with depth"] += seconds(start)
	res := &Result{Image: img}
	if res.Report, err = m.Report(); err != nil {
		return nil, err
	}
	return res, nil
}

// resolveSizes draws the file-size sample under the N / S constraints into
// the sizes column, which keeps the raw values: readers round them with
// roundSize. The resolver draws a pool straight into the column and, when
// no size was requested or the draw already meets it — every well-sized
// config — never holds it; otherwise it works on the heap and its result is
// written over the column, the documented O(files) corner of a spilled pass
// (targets far from the distribution's expected sum).
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
	if err := sizes.storeAt(0, values); err != nil {
		return constraint.Result{}, err
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
	table := g.ds.ExtensionsByCount()
	names := table.Names()
	if uint64(len(names)) >= uint64(extOther) {
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
//     depth is at least 1) until the ordered pass replaces it. Each shard
//     tallies its files per depth.
//  2. Commit — in index order, special placements are committed, so every
//     depth level starts from the same directory counters, and every other
//     file's rounded size is appended to its depth level's list, made with
//     room for the level's tally.
//  3. Parent pass — one worker per depth level walks its list. A file at
//     depth d picks its parent among directories at depth d-1 only, so
//     workers touch disjoint directory sets while preserving the sequential
//     preferential-attachment dynamics within each depth. The walk reads
//     each size from the level's own list and writes the parent drawn for
//     it in its place; it holds no block of the file columns.
//  4. Ordered pass — in index order, each file still marked with a depth
//     takes the next parent of that depth's list, and every file goes to
//     the renumbering (columns.go), which numbers files directory-major.
//
// Shard boundaries, depth grouping (ascending file index), and every RNG
// stream are functions of the seed and stable shard/depth keys — never of
// worker count, scheduling or where the columns live — so any parallelism
// level produces the identical image, on the heap or spilled.
//
// placeFiles fills m's parents column, renumbers the columns and emits no
// records — a file's record (name, depth, extension) is derived from the
// columns at consumption time.
// It also totals the rounded sizes, which the commit loop passes anyway.
// Cancellation is polled per shard and per depth level; on cancellation the
// caller discards the partially filled columns, so an aborted run never
// leaks a half-placed image.
func (g *Generator) placeFiles(ctx context.Context, m *Metadata, rng *stats.RNG) error {
	sizes, parents := m.sizes, m.parents
	placer := namespace.NewPlacer(m.tree, g.placerConfig(m.tree), rng.Fork("placement"))
	workers := effectiveParallelism(g.cfg.Parallelism)

	depthStream := rng.Fork("placement/depth")
	tallies := make([]atomic.Int64, placer.MaxFileDepth()+1)
	err := parallel.Run(ctx, workers, parallel.Shards(sizes.n), func(s int) error {
		srng := depthStream.SplitN(uint64(s))
		sz, err := sizes.load(s, nil)
		if err != nil {
			return err
		}
		par := parents.shard(s, nil)
		tally := make([]int64, len(tallies))
		for k := range par {
			if dirID, ok := placer.ChooseSpecial(srng); ok {
				par[k] = int32(dirID)
			} else {
				d := placer.ChooseDepth(roundSize(sz[k]), srng)
				par[k] = -int32(d)
				tally[d]++
			}
		}
		for d, n := range tally {
			if n > 0 {
				tallies[d].Add(n)
			}
		}
		return parents.store(s, par)
	})
	if err != nil {
		return err
	}

	// A level's list carries its files' sizes into the parent pass and their
	// parents out of it.
	levels := make([]*column[int64], len(tallies))
	for d := range levels {
		if n := tallies[d].Load(); n > 0 {
			if levels[d], err = newList[int64](m.store, fmt.Sprintf("depth-%d.i64", d), int(n)); err != nil {
				return err
			}
		}
	}
	err = scanFiles(ctx, sizes, nil, parents, func(_ int, sz []float64, _ []uint32, par []int32) error {
		for k, p := range par {
			size := roundSize(sz[k])
			m.totalBytes += size
			if p >= 0 {
				placer.Commit(int(p), size)
			} else if err := levels[-p].append(size); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	parentStream := rng.Fork("placement/parent")
	err = parallel.Run(ctx, workers, len(levels), func(d int) error {
		level := levels[d]
		if level == nil {
			return nil
		}
		if err := level.flush(); err != nil {
			return err
		}
		drng := parentStream.SplitN(uint64(d))
		return level.each(func(s int, vals []int64) error {
			for k, size := range vals {
				dirID := placer.ChooseParentAt(d-1, drng)
				placer.Commit(dirID, size)
				vals[k] = int64(dirID)
			}
			return level.store(s, vals)
		})
	})
	if err != nil {
		return err
	}

	readers := make([]reader[int64], len(levels))
	for d, level := range levels {
		readers[d].c = level
	}
	rn, err := newRenumbering(m)
	if err == nil {
		err = scanFiles(ctx, sizes, m.exts, parents, func(_ int, sz []float64, ex []uint32, par []int32) error {
			for k, p := range par {
				if p < 0 {
					dirID, err := readers[-p].next()
					if err != nil {
						return err
					}
					p = int32(dirID)
				}
				if err := rn.put(sz[k], ex[k], p); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		return err
	}
	return rn.finish(ctx, m)
}

func normalizeExt(ext string) string {
	if ext == "null" {
		return ""
	}
	return ext
}

// placerConfig builds the namespace placer configuration from the config and
// the Table 2 models.
func (g *Generator) placerConfig(tree *namespace.Tree) namespace.PlacerConfig {
	cfg := g.cfg
	var meanBytes []float64
	if !cfg.DisableSizeDepthCoupling {
		meanBytes = g.ds.MeanBytesByDepth()
	}
	maxDepth := 0
	if cfg.TreeShape == namespace.ShapeDeep {
		// Deep trees intentionally exceed the Poisson support; allow files at
		// any depth the tree reaches.
		maxDepth = tree.MaxDepth() + 1
	}
	return namespace.PlacerConfig{
		DepthModel:            DefaultFileDepthDistribution(),
		MeanBytesByDepth:      meanBytes,
		DirFileModel:          DefaultDirFileCountDistribution(),
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
