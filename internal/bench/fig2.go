package bench

import (
	"fmt"
	"io"

	"impressions/internal/core"
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

// Fig2 reproduces Figure 2: the eight generated-versus-desired distribution
// plots that demonstrate the accuracy of Impressions in recreating file
// system properties — (a) directories by namespace depth, (b) directories by
// subdirectory count, (c) files by size, (d) bytes by containing file size,
// (e) top extensions by count, (f) files by namespace depth, (g) mean bytes
// per file by depth, and (h) files by depth with special directories.
type Fig2 struct{}

// NewFig2 returns the Figure 2 experiment.
func NewFig2() Fig2 { return Fig2{} }

// Name implements Experiment.
func (Fig2) Name() string { return "fig2" }

// Title implements Experiment.
func (Fig2) Title() string {
	return "Figure 2: accuracy of generated vs desired distributions"
}

// Run implements Experiment.
func (f Fig2) Run(w io.Writer, opts Options) error {
	img, ds, err := f.GenerateImage(opts)
	if err != nil {
		return err
	}
	st := img.Stats(fig2Stats)

	// (a) Directories by namespace depth.
	desDirs, desSubdirs := ds.NamespaceCurvesFor(img.DirCount())
	genDirs := st.DirsByDepth().Normalize()
	printDepthSeries(w, "(a) directories by namespace depth (% of dirs)", desDirs.Normalize(), genDirs)

	// (b) Directories by subdirectory count (cumulative, as the paper plots).
	genSub := cumulative(st.DirsBySubdir().Normalize())
	desSub := cumulative(desSubdirs.Normalize()[:17])
	printSeriesWithLabels(w, "(b) directories by subdirectory count (cumulative %)", countLabels(17), desSub, genSub)

	// (c) Files by size.
	genSize := st.FilesBySize()
	desSize := ds.FilesBySize()
	fmt.Fprintln(w, "(c) files by size (% of files)")
	printSizeSeries(w, "D (desired)", desSize, "G (generated)", genSize, 1e-4)

	// (d) Bytes by containing file size.
	genBytes := st.BytesBySize()
	desBytes := ds.BytesByFileSize()
	fmt.Fprintln(w, "(d) bytes by containing file size (% of bytes)")
	printSizeSeries(w, "D (desired)", desBytes, "G (generated)", genBytes, 1e-4)

	// (e) Top extensions by count.
	names := ds.ExtensionsByCount().Names()
	named := names[:len(names)-1]
	genExt := st.ExtensionFractions(named)
	desExt := ds.ExtensionsByCount().Probs()
	printSeriesWithLabels(w, "(e) top extensions by count (fraction of files)",
		append(append([]string{}, named...), "others"), desExt, genExt)

	// (f) Files by namespace depth.
	genDepth := st.FilesByDepth().Normalize()
	desDepth := ds.FilesByDepth().Normalize()
	printDepthSeries(w, "(f) files by namespace depth (% of files)", desDepth, genDepth)

	// (g) Mean bytes per file by depth.
	genMean := st.MeanBytesByDepth()
	desMean := ds.MeanBytesByDepth()
	printDepthSeries(w, "(g) mean bytes per file by namespace depth (bytes)", desMean, genMean)

	// (h) Files by namespace depth with special directories.
	imgSpecial, _, err := f.generate(opts, true)
	if err != nil {
		return err
	}
	genSpecial := imgSpecial.Stats(fig2Stats).FilesByDepth().Normalize()
	desSpecial := ds.FilesByDepthWithSpecial().Normalize()
	printDepthSeries(w, "(h) files by depth with special directories (% of files)", desSpecial, genSpecial)
	return nil
}

// fig2Stats bins every panel: one replay of each image feeds all of them.
// Panel (b) plots subdirectory counts 0..16.
var fig2Stats = fsimage.StatsConfig{SizeMaxExp: dataset.SizeMaxExp, DepthBins: dataset.DepthBins, CountBins: 17}

// GenerateImage produces the default image (without special directories) and
// the dataset whose desired curves it is compared against.
func (f Fig2) GenerateImage(opts Options) (*fsimage.Image, *dataset.Dataset, error) {
	return f.generate(opts, false)
}

func (f Fig2) generate(opts Options, special bool) (*fsimage.Image, *dataset.Dataset, error) {
	files, dirs := 20000, 4000
	if opts.Quick {
		files, dirs = 4000, 800
	}
	cfg := core.Config{
		NumFiles:              files,
		NumDirs:               dirs,
		Seed:                  opts.Seed,
		UseSpecialDirectories: special,
	}
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := gen.Generate()
	if err != nil {
		return nil, nil, err
	}
	return res.Image, gen.Dataset(), nil
}

func cumulative(fracs []float64) []float64 {
	out := make([]float64, len(fracs))
	acc := 0.0
	for i, f := range fracs {
		acc += f
		out[i] = acc
	}
	return out
}

func depthLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("depth %d", i)
	}
	return out
}

func countLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

func printDepthSeries(w io.Writer, title string, desired, generated []float64) {
	fmt.Fprintln(w, title)
	n := len(desired)
	if len(generated) < n {
		n = len(generated)
	}
	series(w, "x", depthLabels(n), map[string][]float64{
		"D (desired)":   desired[:n],
		"G (generated)": generated[:n],
	}, []string{"D (desired)", "G (generated)"})
}

func printSeriesWithLabels(w io.Writer, title string, labels []string, desired, generated []float64) {
	fmt.Fprintln(w, title)
	n := len(labels)
	if len(desired) < n {
		n = len(desired)
	}
	if len(generated) < n {
		n = len(generated)
	}
	series(w, "x", labels[:n], map[string][]float64{
		"D (desired)":   desired[:n],
		"G (generated)": generated[:n],
	}, []string{"D (desired)", "G (generated)"})
}

// printSizeSeries prints two size histograms, each normalized to its total,
// as the columns aName and bName, over the power-of-two bins where either
// holds at least floor: the empty bins would bury the rest.
func printSizeSeries(w io.Writer, aName string, a *stats.Histogram, bName string, b *stats.Histogram, floor float64) {
	af, bf := a.Normalize(), b.Normalize()
	var labels []string
	var avals, bvals []float64
	for i := range af {
		if af[i] < floor && bf[i] < floor {
			continue
		}
		labels = append(labels, a.BinLabel(i))
		avals = append(avals, af[i])
		bvals = append(bvals, bf[i])
	}
	series(w, "size bin", labels, map[string][]float64{aName: avals, bName: bvals}, []string{aName, bName})
}
