// Package dataset provides the "desired" (empirical) file-system
// distributions that Impressions validates its generated images against.
//
// The original paper uses a five-year dataset of over 60,000 Windows
// file-system metadata snapshots collected at Microsoft (Agrawal et al.,
// FAST '07). That dataset is proprietary and not available here, so this
// package is a synthetic substitute: it produces per-parameter "desired"
// curves by sampling the same parametric families the paper reports in
// Table 2 (lognormal body + Pareto tail file sizes, mixture-of-lognormals
// bytes, Poisson depth, the generative directory model, percentile extension
// popularity), with a large sample count and a dedicated seed so the curves
// are smooth, deterministic, and independent of the generation pipeline under
// test. See DESIGN.md §1 for the substitution rationale.
//
// New builds only the analytic parts: the parametric models, the extension
// tables, the special directories and MeanBytesByDepth, which is all that
// generation reads. The six Monte Carlo curves — DirsByDepth,
// DirsBySubdirCount, FilesBySize, BytesByFileSize, FilesByDepth and
// FilesByDepthWithSpecial — are built together the first time any of those
// six accessors is called (an accuracy measurement or a paper experiment),
// once per Dataset and safely under concurrent callers. They come from the
// same seed and stream labels either way, so when they are built does not
// change them. DirsByDepthFor, DirsBySubdirCountFor and NamespaceCurvesFor
// build their curves on every call; Profile builds its own too.
package dataset

import (
	"fmt"
	"math"
	"sync"

	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// SizeMaxExp is the largest power-of-two bin exponent used for file-size
// histograms (2^37 = 128 GB upper edge, matching the paper's figures).
const SizeMaxExp = 37

// DepthBins is the number of unit-width namespace-depth bins (0..16+),
// matching the x-axis of the paper's depth figures.
const DepthBins = 17

// Dataset is a bundle of desired distributions for one file-system
// population. All histograms are deterministic functions of the seed.
type Dataset struct {
	seed int64

	curvesOnce sync.Once
	built      curves // read through d.curves()

	meanBytesDepth []float64
	extByCount     stats.Categorical
	specialDirs    []SpecialDirectory
	fileSizeModel  stats.Hybrid
	fileDepthModel stats.Poisson
	sampleCount    int
	dirSampleCount int
}

// curves are the six desired curves drawn by Monte Carlo from the models.
type curves struct {
	dirsByDepth    *stats.Histogram
	dirsBySubdirs  *stats.Histogram
	filesBySize    *stats.Histogram
	bytesBySize    *stats.Histogram
	filesByDepth   *stats.Histogram
	filesByDepthSp *stats.Histogram
}

// SpecialDirectory describes a directory that holds a disproportionate share
// of files (§3.3.2's example: web-cache files at depth 7, Windows and
// Program Files files at depth 2, System files at depth 3). Depth is the
// namespace depth of the files the directory contains (the directory itself
// sits one level shallower), Bias is the extra selection weight applied when
// parents are chosen, and FileShare is the fraction of all files that live
// directly in it.
type SpecialDirectory struct {
	Name      string
	Depth     int
	Bias      float64
	FileShare float64
}

// Option customizes dataset construction.
type Option func(*config)

type config struct {
	samples    int
	dirSamples int
}

// WithSampleCount sets how many file samples back the desired curves
// (default 200000).
func WithSampleCount(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.samples = n
		}
	}
}

// WithDirectorySampleCount sets how many directories back the desired
// namespace curves (default 20000).
func WithDirectorySampleCount(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.dirSamples = n
		}
	}
}

// New builds the synthetic desired dataset deterministically from seed. The
// Monte Carlo curves are left for their first accessor.
func New(seed int64, opts ...Option) *Dataset {
	cfg := config{samples: 200000, dirSamples: 20000}
	for _, o := range opts {
		o(&cfg)
	}
	d := &Dataset{
		seed:           seed,
		sampleCount:    cfg.samples,
		dirSampleCount: cfg.dirSamples,
	}
	d.fileSizeModel = DefaultFileSizeModel()
	d.fileDepthModel = stats.NewPoisson(6.49)
	d.extByCount = DefaultExtensionsByCount()
	d.specialDirs = DefaultSpecialDirectories()
	d.meanBytesDepth = make([]float64, DepthBins)
	for depth := range d.meanBytesDepth {
		d.meanBytesDepth[depth] = meanBytesAtDepth(depth)
	}
	return d
}

// defaultDataset caches the default dataset, so that its curves, once an
// accessor builds them, are built once per process.
var (
	defaultOnce sync.Once
	defaultDS   *Dataset
)

// Default returns the dataset used when the user does not supply one, seeded
// with the paper's canonical seed. The dataset is built once and shared; all
// accessors return copies so callers cannot disturb it.
func Default() *Dataset {
	defaultOnce.Do(func() { defaultDS = New(20090225) })
	return defaultDS
}

// Seed returns the dataset's seed.
func (d *Dataset) Seed() int64 { return d.seed }

// MaxFileSizeBytes caps individual file sizes at 8 GB, the order of the
// largest files observed in the desktop metadata studies the defaults are
// drawn from (the Pareto tail with k<1 would otherwise be dominated by a
// single astronomically large sample).
const MaxFileSizeBytes = 8 << 30

// DefaultFileSizeModel returns the Table 2 hybrid file-size-by-count model:
// lognormal body (α1=0.99994, µ=9.48, σ=2.46) with a Pareto tail
// (k=0.91, Xm=512 MB), capped at MaxFileSizeBytes.
func DefaultFileSizeModel() stats.Hybrid {
	return stats.NewHybrid(
		stats.NewLognormal(9.48, 2.46),
		stats.NewPareto(0.91, 512*1024*1024),
		0.99994,
	).WithCap(MaxFileSizeBytes)
}

// DefaultBytesBySizeModel returns the Table 2 mixture-of-lognormals model for
// file size weighted by containing bytes (α=0.76/0.24, µ=14.83/20.93,
// σ=2.35/1.48).
func DefaultBytesBySizeModel() stats.Mixture {
	return stats.NewLognormalMixture(
		[]float64{0.76, 0.24},
		[]float64{14.83, 20.93},
		[]float64{2.35, 1.48},
	)
}

// DefaultExtensionsByCount returns the percentile table of the top file
// extensions by count. The paper keeps the top-20 extensions which together
// cover roughly 50% of files; the remainder get random three-character
// extensions. The named categories below follow Figure 2(e): cpp, dll, exe,
// gif, h, htm, jpg, null (no extension), txt, plus further common Windows
// extensions to reach 20, with "others" absorbing the remaining ~50%.
func DefaultExtensionsByCount() stats.Categorical {
	names := []string{
		"cpp", "dll", "exe", "gif", "h", "htm", "jpg", "null", "txt",
		"lib", "pdb", "obj", "wav", "ini", "inf", "log", "zip", "doc", "mp3", "sh",
		"others",
	}
	weights := []float64{
		0.039, 0.047, 0.031, 0.051, 0.062, 0.054, 0.052, 0.092, 0.046,
		0.019, 0.014, 0.012, 0.010, 0.011, 0.009, 0.008, 0.006, 0.010, 0.012, 0.006,
		0.411,
	}
	return stats.NewCategorical(names, weights)
}

// DefaultSpecialDirectories returns the special-directory configuration used
// in Figure 2(h): a Windows web cache at depth 7, Windows and Program Files
// folders at depth 2, and System files at depth 3.
func DefaultSpecialDirectories() []SpecialDirectory {
	return []SpecialDirectory{
		{Name: "Windows", Depth: 2, Bias: 12, FileShare: 0.05},
		{Name: "Program Files", Depth: 2, Bias: 16, FileShare: 0.10},
		{Name: "System32", Depth: 3, Bias: 10, FileShare: 0.06},
		{Name: "Temporary Internet Files", Depth: 7, Bias: 30, FileShare: 0.14},
	}
}

// curves returns the Monte Carlo curves, building them on the first call.
func (d *Dataset) curves() *curves {
	d.curvesOnce.Do(d.buildCurves)
	return &d.built
}

// buildCurves materializes the six desired curves by direct Monte Carlo from
// the parametric models: the generative directory model gives the namespace
// curves, and the hybrid size model and the Poisson depth model the rest.
func (d *Dataset) buildCurves() {
	rng := stats.NewRNG(d.seed)
	c := &d.built
	c.dirsByDepth, c.dirsBySubdirs = namespaceCurves(rng.Fork("dataset/dirs"), d.dirSampleCount)
	c.filesBySize, c.bytesBySize = sizeCurves(rng.Fork("dataset/sizes"), d.sampleCount, d.fileSizeModel)
	c.filesByDepth, c.filesByDepthSp = d.depthCurves(rng.Fork("dataset/depths"))
}

// namespaceCurves runs the generative model of Agrawal et al. (parent chosen
// with probability proportional to C(parent)+2) for nDirs directories and
// returns the dirs-by-depth and dirs-by-subdir-count histograms. The model is
// the namespace package's generative tree builder; the "desired" curves are
// by definition the distributions that model produces (the paper fits the
// model to the Windows dataset and then uses it as ground truth), so reusing
// the builder here introduces no circularity beyond what the paper itself
// does.
func namespaceCurves(rng *stats.RNG, nDirs int) (byDepth, bySubdirs *stats.Histogram) {
	if nDirs < 1 {
		nDirs = 1
	}
	tree := namespace.GenerateTree(rng, nDirs, namespace.ShapeGenerative)
	hDepth := stats.NewHistogram(stats.UnitEdges(DepthBins))
	copy(hDepth.Counts, tree.DepthHistogramCounts(DepthBins))
	hSub := stats.NewHistogram(stats.UnitEdges(65))
	copy(hSub.Counts, tree.SubdirCountHistogram(65))
	return hDepth, hSub
}

// DirsByDepthFor returns the desired directories-by-depth curve for a file
// system containing nDirs directories (see NamespaceCurvesFor).
func (d *Dataset) DirsByDepthFor(nDirs int) *stats.Histogram {
	byDepth, _ := d.NamespaceCurvesFor(nDirs)
	return byDepth
}

// DirsBySubdirCountFor is the companion of DirsByDepthFor for the
// directories-by-subdirectory-count curve.
func (d *Dataset) DirsBySubdirCountFor(nDirs int) *stats.Histogram {
	_, bySub := d.NamespaceCurvesFor(nDirs)
	return bySub
}

const namespaceCurveTrials = 5

// NamespaceCurvesFor returns the desired directories-by-depth and
// directories-by-subdirectory-count curves for a file system containing nDirs
// directories. The generative model's depth profile depends on tree size, so
// accuracy comparisons (Figure 2, Table 3) use desired curves generated at the
// same scale as the image under test. They are deterministic for a given
// dataset seed and nDirs, and are averaged over several independent model
// runs so they represent the model rather than one realization. A caller that
// needs both curves takes them from one call: each call grows
// namespaceCurveTrials trees of nDirs directories.
func (d *Dataset) NamespaceCurvesFor(nDirs int) (byDepth, bySubdirs *stats.Histogram) {
	accDepth := stats.NewHistogram(stats.UnitEdges(DepthBins))
	accSub := stats.NewHistogram(stats.UnitEdges(65))
	rng := stats.NewRNG(d.seed).Fork(fmt.Sprintf("dataset/dirs/%d", nDirs))
	for trial := 0; trial < namespaceCurveTrials; trial++ {
		hd, hs := namespaceCurves(rng.Fork(fmt.Sprintf("trial%d", trial)), nDirs)
		for i := range accDepth.Counts {
			accDepth.Counts[i] += hd.Counts[i]
		}
		for i := range accSub.Counts {
			accSub.Counts[i] += hs.Counts[i]
		}
	}
	return accDepth, accSub
}

// sizeCurves builds the files-by-size and bytes-by-size histograms for n
// files drawn from the hybrid model: files-by-size counts each file once, and
// bytes-by-containing-size weights each file by its size. Deriving both views
// from the same model keeps the desired curves mutually consistent, exactly
// as they are in a real metadata snapshot (the Table 2 mixture-of-lognormals
// remains available via DefaultBytesBySizeModel as the parametric
// description of the byte view). The lognormal body is sampled; the Pareto
// tail's contribution is added analytically so the "desired" curves
// represent the population (the paper's 60,000-machine dataset) rather than
// one noisy realization — with k<1 a sampled tail would be dominated by its
// single largest draw.
func sizeCurves(rng *stats.RNG, n int, model stats.Hybrid) (hCount, hBytes *stats.Histogram) {
	hCount = stats.NewPowerOfTwoHistogram(SizeMaxExp)
	hBytes = stats.NewPowerOfTwoHistogram(SizeMaxExp)
	bodySamples := int(float64(n) * model.BodyWeight)
	for i := 0; i < bodySamples; i++ {
		sz := model.Body.Sample(rng)
		if model.Cap > 0 && sz > model.Cap {
			sz = model.Cap
		}
		hCount.Add(sz)
		hBytes.AddWeighted(sz, sz)
	}
	addAnalyticTail(hCount, hBytes, float64(n)*(1-model.BodyWeight), model)
	return hCount, hBytes
}

// addAnalyticTail distributes tailFiles Pareto-tail files across the
// histograms' bins using the tail's analytic probability and byte mass per
// bin, truncated at the model cap (or the histogram's last edge).
func addAnalyticTail(hCount, hBytes *stats.Histogram, tailFiles float64, model stats.Hybrid) {
	if tailFiles <= 0 {
		return
	}
	k, xm := model.Tail.K, model.Tail.Xm
	limit := model.Cap
	if limit <= 0 || limit > hCount.Edges[len(hCount.Edges)-1] {
		limit = hCount.Edges[len(hCount.Edges)-1]
	}
	if limit <= xm {
		return
	}
	// Normalization over [xm, limit].
	probTotal := 1 - pow(xm/limit, k)
	byteTotal := paretoByteMass(xm, limit, k, xm)
	for i := 0; i < hCount.Bins(); i++ {
		lo := hCount.Edges[i]
		hi := hCount.Edges[i+1]
		if hi <= xm || lo >= limit {
			continue
		}
		if lo < xm {
			lo = xm
		}
		if hi > limit {
			hi = limit
		}
		prob := (pow(xm/lo, k) - pow(xm/hi, k)) / probTotal
		hCount.Counts[i] += tailFiles * prob
		if byteTotal > 0 {
			hBytes.Counts[i] += tailFiles * meanTailSize(xm, limit, k) * paretoByteMass(lo, hi, k, xm) / byteTotal
		}
	}
}

// paretoByteMass integrates x·f(x) for a Pareto(k, xm) over [lo, hi].
func paretoByteMass(lo, hi, k, xm float64) float64 {
	if k == 1 {
		return pow(xm, k) * (logf(hi) - logf(lo))
	}
	return k * pow(xm, k) / (1 - k) * (pow(hi, 1-k) - pow(lo, 1-k))
}

// meanTailSize is the mean of a Pareto(k, xm) truncated at limit.
func meanTailSize(xm, limit, k float64) float64 {
	return paretoByteMass(xm, limit, k, xm) / (1 - pow(xm/limit, k))
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

func logf(x float64) float64 { return math.Log(x) }

// depthCurves samples the Poisson depth model, and derives from it the
// special-directory-augmented curve.
func (d *Dataset) depthCurves(rng *stats.RNG) (hDepth, hSpecial *stats.Histogram) {
	hDepth = stats.NewHistogram(stats.UnitEdges(DepthBins))
	for i := 0; i < d.sampleCount; i++ {
		depth := d.fileDepthModel.SampleInt(rng)
		if depth >= DepthBins {
			depth = DepthBins - 1
		}
		hDepth.Add(float64(depth))
	}

	// Files by depth with special directories: each special directory holds
	// its FileShare of all files directly at its Depth (the depth of its
	// files); the remaining files follow the Poisson base curve. This is the
	// same conditional-probability model the placer uses, so generated images
	// can be validated against it.
	hSpecial = stats.NewHistogram(stats.UnitEdges(DepthBins))
	base := hDepth.Normalize()
	extra := make([]float64, DepthBins)
	specialShare := 0.0
	for _, sp := range d.specialDirs {
		if sp.Depth < DepthBins && sp.FileShare > 0 {
			extra[sp.Depth] += sp.FileShare
			specialShare += sp.FileShare
		}
	}
	if specialShare > 0.95 {
		specialShare = 0.95
	}
	for depth := 0; depth < DepthBins; depth++ {
		frac := (1-specialShare)*base[depth] + extra[depth]
		hSpecial.Counts[depth] = frac * float64(d.sampleCount)
	}
	return hDepth, hSpecial
}

// meanBytesAtDepth returns the desired mean file size (bytes) at a namespace
// depth. Mean bytes per file decreases slowly with depth: files near the root
// (installers, archives, databases) are larger than deeply nested ones
// (source files, web cache). Modeled as an exponential decay from ~1.5 MB at
// the root towards ~32 KB at depth 16, matching the shape of the paper's
// Figure 2(g).
func meanBytesAtDepth(depth int) float64 {
	const root = 1.5 * 1024 * 1024
	const floor = 32 * 1024
	decay := 0.82
	v := root
	for i := 0; i < depth; i++ {
		v *= decay
	}
	if v < floor {
		v = floor
	}
	return v
}

// DirsByDepth returns the desired directories-by-namespace-depth histogram.
func (d *Dataset) DirsByDepth() *stats.Histogram { return d.curves().dirsByDepth.Clone() }

// DirsBySubdirCount returns the desired directories-by-subdirectory-count
// histogram.
func (d *Dataset) DirsBySubdirCount() *stats.Histogram { return d.curves().dirsBySubdirs.Clone() }

// FilesBySize returns the desired files-by-size histogram (power-of-two
// bins).
func (d *Dataset) FilesBySize() *stats.Histogram { return d.curves().filesBySize.Clone() }

// BytesByFileSize returns the desired bytes-by-containing-file-size histogram.
func (d *Dataset) BytesByFileSize() *stats.Histogram { return d.curves().bytesBySize.Clone() }

// FilesByDepth returns the desired files-by-namespace-depth histogram.
func (d *Dataset) FilesByDepth() *stats.Histogram { return d.curves().filesByDepth.Clone() }

// FilesByDepthWithSpecial returns the desired files-by-depth histogram when
// special directories are enabled.
func (d *Dataset) FilesByDepthWithSpecial() *stats.Histogram {
	return d.curves().filesByDepthSp.Clone()
}

// MeanBytesByDepth returns the desired mean bytes per file at each depth.
func (d *Dataset) MeanBytesByDepth() []float64 {
	return append([]float64(nil), d.meanBytesDepth...)
}

// ExtensionsByCount returns the desired extension-popularity table by count.
func (d *Dataset) ExtensionsByCount() stats.Categorical { return d.extByCount }

// SpecialDirectories returns the special-directory configuration.
func (d *Dataset) SpecialDirectories() []SpecialDirectory {
	return append([]SpecialDirectory(nil), d.specialDirs...)
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset(seed=%d, files=%d, dirs=%d)", d.seed, d.sampleCount, d.dirSampleCount)
}
