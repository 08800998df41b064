package core

import (
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/stats/gof"
)

// AccuracyParameters names the eight file-system parameters whose accuracy
// the paper evaluates in Figure 2 and Table 3, in the paper's order.
var AccuracyParameters = []string{
	"directory count with depth",
	"directory size (subdirectories)",
	"file size by count",
	"file size by containing bytes",
	"extension popularity",
	"file count with depth",
	"bytes with depth",
	"file count with depth (special)",
}

// Accuracy holds the per-parameter agreement between a generated image and
// the desired dataset curves. All values except BytesWithDepthMB are MDCC
// (Maximum Displacement of the Cumulative Curves); bytes-with-depth is
// reported as the average absolute difference in mean bytes per file, in
// megabytes, because a cumulative-curve metric is not meaningful there
// (Table 3's footnote).
type Accuracy struct {
	DirsWithDepth       float64
	DirsWithSubdirs     float64
	FileSizeByCount     float64
	FileSizeByBytes     float64
	ExtensionPopularity float64
	FilesWithDepth      float64
	BytesWithDepthMB    float64
	FilesWithDepthSpec  float64
}

// AsMap returns the accuracy values keyed by AccuracyParameters names.
func (a Accuracy) AsMap() map[string]float64 {
	return map[string]float64{
		AccuracyParameters[0]: a.DirsWithDepth,
		AccuracyParameters[1]: a.DirsWithSubdirs,
		AccuracyParameters[2]: a.FileSizeByCount,
		AccuracyParameters[3]: a.FileSizeByBytes,
		AccuracyParameters[4]: a.ExtensionPopularity,
		AccuracyParameters[5]: a.FilesWithDepth,
		AccuracyParameters[6]: a.BytesWithDepthMB,
		AccuracyParameters[7]: a.FilesWithDepthSpec,
	}
}

// MeasureAccuracy compares a generated image against the desired curves of
// dataset.Default(), returning per-parameter MDCC values (and the mean-bytes
// difference for bytes-with-depth). Files by depth is read against both
// desired curves, without special directories (FilesWithDepth) and with
// them (FilesWithDepthSpec), so callers can report either one.
func MeasureAccuracy(img *fsimage.Image) Accuracy {
	var acc Accuracy
	ds := dataset.Default()

	// One streaming pass accumulates every distribution the eight metrics
	// read; the per-metric calls below are views over it.
	st := img.Stats(fsimage.StatsConfig{CountBins: 65})

	// Directories by namespace depth and by subdirectory count. The
	// generative model's depth profile depends on tree size, so both desired
	// curves are produced at the same directory count as the image (Figure
	// 2(a) and (b)).
	desDirs, desSub := ds.NamespaceCurvesFor(img.DirCount())
	acc.DirsWithDepth = mustMDCC(st.DirsByDepth().Normalize(), desDirs.Normalize())
	acc.DirsWithSubdirs = mustMDCC(st.DirsBySubdir().Normalize(), desSub.Normalize())

	// Files by size.
	genSize := st.FilesBySize().Normalize()
	desSize := ds.FilesBySize().Normalize()
	acc.FileSizeByCount = mustMDCC(genSize, desSize)

	// Bytes by containing file size.
	genBytes := st.BytesBySize().Normalize()
	desBytes := ds.BytesByFileSize().Normalize()
	acc.FileSizeByBytes = mustMDCC(genBytes, desBytes)

	// Extension popularity over the dataset's named extensions (the trailing
	// "others" bucket is recomputed for the image).
	names := ds.ExtensionsByCount().Names()
	named := names[:len(names)-1] // drop "others"; ExtensionFractions appends it
	genExt := st.ExtensionFractions(named)
	desExt := ds.ExtensionsByCount().Probs()
	acc.ExtensionPopularity = mustMDCC(genExt, desExt)

	// Files by namespace depth, against the plain and the special curve.
	genDepth := st.FilesByDepth().Normalize()
	acc.FilesWithDepth = mustMDCC(genDepth, ds.FilesByDepth().Normalize())
	acc.FilesWithDepthSpec = mustMDCC(genDepth, ds.FilesByDepthWithSpecial().Normalize())

	// Bytes with depth: average difference in mean bytes per file (MB).
	genMean := st.MeanBytesByDepth()
	desMean := ds.MeanBytesByDepth()
	// Only compare depths where the image actually has files; empty depths
	// would otherwise dominate the difference.
	var diffs []float64
	for i := range genMean {
		if genMean[i] > 0 && i < len(desMean) {
			diffs = append(diffs, (genMean[i]-desMean[i])/(1024*1024))
		}
	}
	if len(diffs) > 0 {
		sum := 0.0
		for _, d := range diffs {
			if d < 0 {
				d = -d
			}
			sum += d
		}
		acc.BytesWithDepthMB = sum / float64(len(diffs))
	}
	return acc
}

func mustMDCC(generated, desired []float64) float64 {
	// Histogram bin counts can differ when the desired curve uses more bins
	// than the image's; truncate to the shorter length before comparing.
	n := len(generated)
	if len(desired) < n {
		n = len(desired)
	}
	v, err := gof.MDCC(generated[:n], desired[:n])
	if err != nil {
		return 1
	}
	return v
}
