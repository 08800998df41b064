package impressions_test

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"impressions"
	"impressions/internal/bench"
	"impressions/internal/constraint"
	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/search"
	"impressions/internal/stats"
	"impressions/internal/workload"
)

// benchOpts runs the paper experiments at reduced (quick) scale so the whole
// benchmark suite finishes in minutes. benchrunner without -quick runs the
// full-scale versions.
func benchOpts() bench.Options {
	o := bench.DefaultOptions()
	o.Quick = true
	o.Trials = 3
	return o
}

// ---------------------------------------------------------------------------
// One benchmark per paper table / figure (see DESIGN.md §3 for the mapping).
// ---------------------------------------------------------------------------

// BenchmarkFig1FindTreeDepth regenerates Figure 1: find overhead across
// cached/fragmented/flat/deep configurations.
func BenchmarkFig1FindTreeDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.NewFig1().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Relative["Deep Tree"]/res.Relative["Flat Tree"], "deep/flat-ratio")
	}
}

// BenchmarkFig2Accuracy regenerates Figure 2: the full set of generated vs
// desired distribution series.
func BenchmarkFig2Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.NewFig2().Run(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3MDCC regenerates Table 3: per-parameter MDCC averaged over
// trials.
func BenchmarkTable3MDCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.NewTable3().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].Value, "files-by-size-MDCC")
	}
}

// BenchmarkFig3Convergence regenerates Figure 3: constraint-resolution
// convergence traces and constrained-distribution accuracy.
func BenchmarkFig3Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.NewFig3().Run(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Constraints regenerates Table 4: constraint-resolution
// summary across the three targets.
func BenchmarkTable4Constraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.NewTable4().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].SuccessRate, "1.5x-success-rate")
	}
}

// BenchmarkFig5Interpolation regenerates Figures 4-5 and Table 5:
// interpolation and extrapolation of file-size curves.
func BenchmarkFig5Interpolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.NewFig5().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].D, "interp-75GB-D")
	}
}

// BenchmarkTable6Performance regenerates Table 6: per-phase image creation
// times (scaled down; benchrunner runs the full-size images).
func BenchmarkTable6Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cols, _, err := bench.NewTable6().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cols[0].TotalTime, "image1-total-s")
	}
}

// BenchmarkFig6Assumptions regenerates Figure 6: content missed by the
// engines' documented cutoffs.
func BenchmarkFig6Assumptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.NewFig6().Measure(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].ByteFrac, "gdl-200KB-bytes-missed")
	}
}

// BenchmarkFig7IndexSize regenerates Figure 7: index size versus content type
// for both engines.
func BenchmarkFig7IndexSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.NewFig7().Measure(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8BeagleVariants regenerates Figure 8: Beagle variants across
// content types.
func BenchmarkFig8BeagleVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.NewFig8().Measure(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablations from DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.NewAblation().Run(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the core building blocks.
// ---------------------------------------------------------------------------

// BenchmarkHybridFileSizeSample measures drawing one file size from the
// Table 2 hybrid model.
func BenchmarkHybridFileSizeSample(b *testing.B) {
	dist := core.DefaultFileSizeDistribution()
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dist.Sample(rng)
	}
}

// benchNamespace builds a namespace of nDirs directories with the generative
// model.
func benchNamespace(b *testing.B, nDirs int) {
	b.Helper()
	b.ReportAllocs()
	dirs := 0
	for i := 0; i < b.N; i++ {
		tree := namespace.GenerateTree(stats.NewRNG(int64(i)), nDirs, namespace.ShapeGenerative)
		dirs += tree.Len()
	}
	b.ReportMetric(float64(dirs)/b.Elapsed().Seconds(), "dirs/s")
}

// BenchmarkNamespaceGeneration measures building a 10,000-directory namespace
// with the generative model.
func BenchmarkNamespaceGeneration(b *testing.B) { benchNamespace(b, 10000) }

// BenchmarkNamespaceGeneration100k scales the skeleton build to 100,000
// directories.
func BenchmarkNamespaceGeneration100k(b *testing.B) { benchNamespace(b, 100000) }

// BenchmarkTreePath measures directory path construction over a deep
// generative tree (the satellite fix replaced O(depth²) concatenation with a
// two-pass fill).
func BenchmarkTreePath(b *testing.B) {
	tree := namespace.GenerateTree(stats.NewRNG(1), 10000, namespace.ShapeGenerative)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tree.Path(i % tree.Len())
	}
}

// BenchmarkFilePlacement measures placing 10,000 files into a generated
// namespace with the multiplicative depth model.
func BenchmarkFilePlacement(b *testing.B) {
	rng := stats.NewRNG(1)
	tree := namespace.GenerateTree(rng, 2000, namespace.ShapeGenerative)
	cfg := namespace.PlacerConfig{
		DepthModel:   stats.NewPoisson(6.49),
		DirFileModel: stats.NewInversePolynomial(2, 2.36, 4096),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placer := namespace.NewPlacer(tree, cfg, stats.NewRNG(int64(i)))
		for j := 0; j < 10000; j++ {
			placer.Place(64 * 1024)
		}
	}
}

// BenchmarkConstraintResolution measures resolving the N/S constraints for
// 1000 files at the matched target.
func BenchmarkConstraintResolution(b *testing.B) {
	dist := stats.NewLognormal(8.16, 2.46)
	target := 1000 * dist.Mean()
	for i := 0; i < b.N; i++ {
		r := constraint.NewResolver(stats.NewRNG(int64(i)))
		if _, err := r.Resolve(constraint.Problem{N: 1000, TargetSum: target, Dist: dist}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageGenerationDefault measures the full metadata pipeline for a
// 5000-file image (no content, no disk).
func BenchmarkImageGenerationDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := impressions.Generate(impressions.Config{NumFiles: 5000, NumDirs: 1000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchGeneration runs the metadata pipeline for a 100k-file image at the
// given parallelism; the Serial/Parallel pair below quantifies the speedup of
// the sharded engine (identical output is asserted by the determinism tests).
func benchGeneration(b *testing.B, parallelism int) {
	b.Helper()
	files := 0
	for i := 0; i < b.N; i++ {
		res, err := impressions.Generate(impressions.Config{
			NumFiles: 100000, NumDirs: 20000, Seed: 1, Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		files += res.Image.FileCount()
	}
	b.ReportMetric(float64(files)/b.Elapsed().Seconds(), "files/s")
}

// benchPlanBuild builds a 100k-file distributed plan end to end (metadata
// pass + chunk encode to a discarding writer) on either the streamed
// (generator-fused, O(chunk) file records) or retained (in-memory image)
// path. The allocs/op row is the number that matters: it is the perf
// trajectory of the out-of-core planner's allocation ceiling.
func benchPlanBuild(b *testing.B, streamed bool) {
	b.Helper()
	cfg := core.Config{NumFiles: 100000, NumDirs: 20000, FSSizeBytes: 100000 * 256, Seed: 1, Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if streamed {
			if _, err := (distribute.PlanRequest{Config: cfg, MaxShards: 8}).Stream(context.Background(), io.Discard); err != nil {
				b.Fatal(err)
			}
		} else {
			plan, err := distribute.BuildPlan(context.Background(), distribute.PlanRequest{Config: cfg, MaxShards: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := plan.Encode(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamingPlanBuild tracks the fused out-of-core planner.
func BenchmarkStreamingPlanBuild(b *testing.B) { benchPlanBuild(b, true) }

// discardWriteCloser swallows fragment writes without retaining them.
type discardWriteCloser struct{}

func (discardWriteCloser) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriteCloser) Close() error                { return nil }

// BenchmarkPartitionedPlanBuild tracks the distributed planner's
// single-node fallback: the same 100k-file build as the streaming
// benchmark, emitted as 8 fragment documents off spilled metadata columns.
// The delta against BenchmarkStreamingPlanBuild is the price of the spill
// round trip plus the per-fragment chunk encoders.
func BenchmarkPartitionedPlanBuild(b *testing.B) {
	cfg := core.Config{NumFiles: 100000, NumDirs: 20000, FSSizeBytes: 100000 * 256, Seed: 1, Parallelism: 1, SpillDir: b.TempDir()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := distribute.PlanRequest{Config: cfg, MaxShards: 8}
		if _, err := distribute.PartitionPlan(context.Background(), req, func(int) (io.WriteCloser, error) {
			return discardWriteCloser{}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetainedPlanBuild is the in-memory reference the streamed path
// is compared against.
func BenchmarkRetainedPlanBuild(b *testing.B) { benchPlanBuild(b, false) }

// BenchmarkImageGenerationSerial is the single-worker reference.
func BenchmarkImageGenerationSerial(b *testing.B) { benchGeneration(b, 1) }

// BenchmarkImageGenerationParallel uses one worker per CPU.
func BenchmarkImageGenerationParallel(b *testing.B) { benchGeneration(b, runtime.NumCPU()) }

// benchMaterialize writes a 3000-file image with generated content at the
// given parallelism.
func benchMaterialize(b *testing.B, parallelism int) {
	b.Helper()
	res, err := impressions.Generate(impressions.Config{
		NumFiles: 3000, NumDirs: 600, Seed: 1,
		// A narrow lognormal keeps the image ~75 MB so the write benchmark
		// fits CI; the default heavy-tailed model would produce ~1 GB.
		FileSizeDist: stats.NewLognormal(9.0, 1.5),
	})
	if err != nil {
		b.Fatal(err)
	}
	registry := content.NewRegistry(content.KindDefault)
	root := b.TempDir()
	b.ResetTimer()
	var written int64
	for i := 0; i < b.N; i++ {
		written, err = res.Image.Materialize(filepath.Join(root, strconv.Itoa(i)), fsimage.MaterializeOptions{
			Registry:    registry,
			Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(written)
}

// BenchmarkMaterializeSerial writes the image with one worker.
func BenchmarkMaterializeSerial(b *testing.B) { benchMaterialize(b, 1) }

// BenchmarkMaterializeParallel writes the image with one worker per CPU.
func BenchmarkMaterializeParallel(b *testing.B) { benchMaterialize(b, runtime.NumCPU()) }

// BenchmarkContentHybridText measures word-model text generation throughput.
// The steady state must be allocation-free: generators draw scratch blocks
// from the shared pool.
func BenchmarkContentHybridText(b *testing.B) {
	gen := content.NewTextGenerator(content.NewHybridModel(0.2))
	rng := stats.NewRNG(1)
	const size = 1 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	var cw content.CountingWriter
	for i := 0; i < b.N; i++ {
		cw.N = 0
		if err := gen.Generate(&cw, size, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentTextGeneric measures the unfused per-word path (a model
// without a fillBlock fast path).
func BenchmarkContentTextGeneric(b *testing.B) {
	gen := content.NewTextGenerator(content.NewLengthModel())
	rng := stats.NewRNG(1)
	const size = 1 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	var cw content.CountingWriter
	for i := 0; i < b.N; i++ {
		cw.N = 0
		if err := gen.Generate(&cw, size, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentBinary measures binary content generation throughput.
func BenchmarkContentBinary(b *testing.B) {
	gen := content.BinaryGenerator{}
	rng := stats.NewRNG(1)
	const size = 1 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	var cw content.CountingWriter
	for i := 0; i < b.N; i++ {
		cw.N = 0
		if err := gen.Generate(&cw, size, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindWorkload measures the simulated find traversal over a
// 5000-file image.
func BenchmarkFindWorkload(b *testing.B) {
	res, err := impressions.Generate(impressions.Config{NumFiles: 5000, NumDirs: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = workload.Find(res.Image, workload.FindConfig{})
	}
}

// BenchmarkSearchIndexing measures a Beagle-policy crawl (attribute +
// content indexing) over a small default image.
func BenchmarkSearchIndexing(b *testing.B) {
	res, err := impressions.Generate(impressions.Config{
		NumFiles: 500, NumDirs: 100, Seed: 1,
		FileSizeDist: stats.NewLognormal(9.0, 1.5),
	})
	if err != nil {
		b.Fatal(err)
	}
	registry := content.NewRegistry(content.KindDefault)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = search.NewEngine(search.BeaglePolicy()).Index(res.Image, registry, 1)
	}
}

// BenchmarkLayoutScore measures computing the aggregate layout score of a
// fragmented simulated disk.
func BenchmarkLayoutScore(b *testing.B) {
	res, err := impressions.Generate(impressions.Config{
		NumFiles: 2000, NumDirs: 400, Seed: 1, LayoutScore: 0.8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Disk.LayoutScore()
	}
}

// ---------------------------------------------------------------------------
// Direct image sinks: serialize the image straight into an archive file with
// sequential writes, no VFS. The scenario is the paper's worst case for
// per-file overhead — 100k small (~1 KB) files — so the MB/s column is
// dominated by per-entry cost, not content generation.
// ---------------------------------------------------------------------------

var (
	sinkBenchOnce  sync.Once
	sinkBenchImg   *fsimage.Image
	sinkBenchError error
)

// sinkBenchImage builds (once) the 100k-small-file image shared by the
// image-sink benchmarks and their VFS baseline.
func sinkBenchImage(b *testing.B) *fsimage.Image {
	b.Helper()
	sinkBenchOnce.Do(func() {
		res, err := impressions.Generate(impressions.Config{
			NumFiles: 100000, NumDirs: 10000, Seed: 1,
			// A narrow ~1 KB lognormal: ~110 MB of content spread over
			// 100k entries, so per-file overhead is what gets measured.
			FileSizeDist: stats.NewLognormal(6.9, 0.5),
		})
		if err != nil {
			sinkBenchError = err
			return
		}
		sinkBenchImg = res.Image
	})
	if sinkBenchError != nil {
		b.Fatal(sinkBenchError)
	}
	return sinkBenchImg
}

// benchSink streams the image into a sink on a file at j=1 and j=2 content
// workers, so `make bench-json` carries the scaling row of the sinks'
// parallel body engine (the writer itself stays one goroutine).
func benchSink(b *testing.B, name string, open func(w io.WriteSeeker, opts imgfmt.Options) (sink fsimage.RecordSink, finish func() (int64, error), err error)) {
	img := sinkBenchImage(b)
	registry := content.NewRegistry(content.KindDefault)
	for _, j := range []int{1, 2} {
		b.Run("j="+strconv.Itoa(j), func(b *testing.B) {
			out, err := os.Create(filepath.Join(b.TempDir(), name))
			if err != nil {
				b.Fatal(err)
			}
			defer out.Close()
			b.ResetTimer()
			var written int64
			for i := 0; i < b.N; i++ {
				if _, err := out.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				sink, finish, err := open(out, imgfmt.Options{Registry: registry, Seed: img.Spec.Seed, Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				if err := img.StreamRecords(sink); err != nil {
					b.Fatal(err)
				}
				if written, err = finish(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(written)
		})
	}
}

// BenchmarkTarSink streams the image as a tar archive onto a file.
func BenchmarkTarSink(b *testing.B) {
	benchSink(b, "image.tar", func(w io.WriteSeeker, opts imgfmt.Options) (fsimage.RecordSink, func() (int64, error), error) {
		sink := imgfmt.NewTarSink(w, opts)
		return sink, func() (int64, error) { err := sink.Close(); return sink.Written(), err }, nil
	})
}

// BenchmarkSquashfsSink streams the image as an uncompressed squashfs onto
// a file.
func BenchmarkSquashfsSink(b *testing.B) {
	benchSink(b, "image.squashfs", func(w io.WriteSeeker, opts imgfmt.Options) (fsimage.RecordSink, func() (int64, error), error) {
		sink, err := imgfmt.NewSquashfsSink(w, opts)
		if err != nil {
			return nil, nil, err
		}
		return sink, func() (int64, error) { err := sink.Close(); return sink.Written(), err }, nil
	})
}

// BenchmarkMaterializeVFSSmallFiles is the VFS baseline the sinks are
// measured against: the same 100k-file image created file-by-file through
// the kernel (one create+write+close per file). The direct sinks' headline
// claim is beating this rate by the per-file syscall overhead.
func BenchmarkMaterializeVFSSmallFiles(b *testing.B) {
	img := sinkBenchImage(b)
	registry := content.NewRegistry(content.KindDefault)
	root := b.TempDir()
	b.ResetTimer()
	var written int64
	for i := 0; i < b.N; i++ {
		var err error
		written, err = img.Materialize(filepath.Join(root, strconv.Itoa(i)), fsimage.MaterializeOptions{
			Registry: registry,
			Seed:     img.Spec.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(written)
}
