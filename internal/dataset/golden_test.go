package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"

	"impressions/internal/stats"
)

// goldenDefaultCurves is the SHA-256 over every value the default dataset
// reports: the six Monte Carlo curves (edges, then counts), the mean bytes
// per depth, and the averaged namespace curves at 2,000 and 40,000
// directories, each rendered with strconv 'g', -1 on a line of its own under
// a line naming it. The value was taken before the curves were built on first
// use; it changes only when the desired distributions are meant to change.
const goldenDefaultCurves = "b48315b069e3d740c8bed3defd491ccba8a55ba8320e8b1b0999f65b539995b5"

func TestDefaultCurvesPinned(t *testing.T) {
	d := Default()
	h := sha256.New()
	writeHistogram := func(name string, hist *stats.Histogram) {
		writeFloats(h, name+" edges", hist.Edges)
		writeFloats(h, name+" counts", hist.Counts)
	}
	writeHistogram("dirs by depth", d.DirsByDepth())
	writeHistogram("dirs by subdirectory count", d.DirsBySubdirCount())
	writeHistogram("files by size", d.FilesBySize())
	writeHistogram("bytes by file size", d.BytesByFileSize())
	writeHistogram("files by depth", d.FilesByDepth())
	writeHistogram("files by depth with special", d.FilesByDepthWithSpecial())
	writeFloats(h, "mean bytes by depth", d.MeanBytesByDepth())
	for _, nDirs := range []int{2000, 40000} {
		n := strconv.Itoa(nDirs)
		writeHistogram("dirs by depth for "+n, d.DirsByDepthFor(nDirs))
		writeHistogram("dirs by subdirectory count for "+n, d.DirsBySubdirCountFor(nDirs))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDefaultCurves {
		t.Errorf("default dataset curves hash %s, want %s", got, goldenDefaultCurves)
	}
}

func writeFloats(h hash.Hash, name string, vs []float64) {
	b := append([]byte(name), '\n')
	for _, v := range vs {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	h.Write(b)
}
