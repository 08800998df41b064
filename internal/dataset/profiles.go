package dataset

import (
	"math"

	"impressions/internal/stats"
)

// SizeProfile is the pair of desired file-size curves (by count and by bytes)
// for a file system of a particular total size. Profiles at several sizes are
// the inputs to the interpolation/extrapolation experiments of §3.5
// (Figures 4 and 5, Table 5).
type SizeProfile struct {
	// FSSizeBytes is the file-system size this profile describes.
	FSSizeBytes float64
	// FilesBySize is the desired files-by-size histogram.
	FilesBySize *stats.Histogram
	// BytesBySize is the desired bytes-by-containing-file-size histogram.
	BytesBySize *stats.Histogram
}

// GB is one gibibyte in bytes.
const GB = float64(1 << 30)

// Profile builds the desired size profile for a file system of the given size
// in bytes. The profile is a deterministic function of the dataset seed and
// the size. Larger file systems skew towards larger files: the lognormal
// means grow logarithmically with file-system size, which mirrors the
// capacity-versus-file-size trend reported in the underlying metadata studies
// and gives the interpolation experiments a real trend to track.
func (d *Dataset) Profile(fsSizeBytes float64) SizeProfile {
	rng := stats.NewRNG(d.seed).Fork("dataset/profile")
	// Derive a deterministic sub-stream per size.
	rng = rng.Fork(formatSizeKey(fsSizeBytes))

	shift := sizeShift(fsSizeBytes)
	countModel := fileSizeModel(shift)

	n := d.sampleCount / 4
	if n < 20000 {
		n = 20000
	}
	hCount, hBytes := sizeCurves(rng, n, countModel)
	return SizeProfile{FSSizeBytes: fsSizeBytes, FilesBySize: hCount, BytesBySize: hBytes}
}

// sizeShift maps a file-system size to the additive shift applied to the
// log-space means of the size models. 100 GB is the reference point (shift
// 0); a 10 GB file system shifts the log-space means down by ~0.45 and a
// 1 TB one up by ~0.45, giving the interpolation experiments a smooth,
// monotone trend to track across file-system sizes.
func sizeShift(fsSizeBytes float64) float64 {
	if fsSizeBytes <= 0 {
		return 0
	}
	return 0.45 * math.Log10(fsSizeBytes/(100*GB))
}

func formatSizeKey(fsSizeBytes float64) string {
	gb := fsSizeBytes / GB
	return "size:" + stats.FormatBytes(gb)
}
