package fsimage

import (
	"fmt"
	"sort"
	"strings"

	"impressions/internal/stats"
)

// SizeMaxExp is the largest power-of-two size bin exponent of every
// ImageStats (2^37 = 128 GB upper edge, matching the paper's figures).
const SizeMaxExp = 37

// DepthBins is the number of unit-width depth bins of every ImageStats
// (0..16+, matching the x-axis of the paper's depth figures); deeper entries
// pool into the last bin.
const DepthBins = 17

// StatsConfig sizes the count bins of an ImageStats accumulator; the size
// and depth bins are SizeMaxExp and DepthBins.
type StatsConfig struct {
	// CountBins is the number of unit bins for per-directory subdirectory
	// and file counts (0 selects 64).
	CountBins int
}

func (c StatsConfig) withDefaults() StatsConfig {
	if c.CountBins <= 0 {
		c.CountBins = 64
	}
	return c
}

// ImageStats is the streaming statistics accumulator: a RecordSink that
// folds an image's metadata stream into every distribution the analysis and
// reporting paths care about — files/bytes by size, files and directories by
// depth, directories by subdirectory and file count, mean bytes per depth,
// and per-extension shares — in one pass, holding O(dirs) state and no file
// records. A retained Image is read the same way: Image.Stats replays it
// into one ImageStats, so the streamed and in-memory paths compute identical
// values by construction.
type ImageStats struct {
	cfg StatsConfig

	filesBySize  *stats.Histogram
	bytesBySize  *stats.Histogram
	filesByDepth *stats.Histogram
	dirsByDepth  *stats.Histogram

	dirDepths  []int32 // depth per directory ID
	subdirs    []int32 // immediate subdirectory count per directory ID
	fileCounts []int32 // direct file count per directory ID

	bytesByDepth []float64 // direct bytes per file depth (pooled last bin)
	countByDepth []float64

	extFiles map[string]int
	extBytes map[string]int64

	files        int
	totalBytes   int64
	maxFileDepth int
}

// NewImageStats returns an empty accumulator with the given bin sizing.
func NewImageStats(cfg StatsConfig) *ImageStats {
	cfg = cfg.withDefaults()
	return &ImageStats{
		cfg:          cfg,
		filesBySize:  stats.NewPowerOfTwoHistogram(SizeMaxExp),
		bytesBySize:  stats.NewPowerOfTwoHistogram(SizeMaxExp),
		filesByDepth: stats.NewHistogram(stats.UnitEdges(DepthBins)),
		dirsByDepth:  stats.NewHistogram(stats.UnitEdges(DepthBins)),
		bytesByDepth: make([]float64, DepthBins),
		countByDepth: make([]float64, DepthBins),
		extFiles:     map[string]int{},
		extBytes:     map[string]int64{},
	}
}

func (s *ImageStats) depthBin(depth int) int {
	if depth < 0 {
		return 0
	}
	if depth >= DepthBins {
		return DepthBins - 1
	}
	return depth
}

// AddDir folds the next directory record into the accumulators.
func (s *ImageStats) AddDir(d DirRecord) error {
	if d.ID != len(s.dirDepths) {
		return fmt.Errorf("fsimage: stats stream directory IDs are not dense (got %d want %d)", d.ID, len(s.dirDepths))
	}
	depth := 0
	if d.ID != 0 {
		if d.Parent < 0 || d.Parent >= len(s.dirDepths) {
			return fmt.Errorf("fsimage: directory %d has invalid parent %d", d.ID, d.Parent)
		}
		depth = int(s.dirDepths[d.Parent]) + 1
		s.subdirs[d.Parent]++
	}
	s.dirDepths = append(s.dirDepths, int32(depth))
	s.subdirs = append(s.subdirs, 0)
	s.fileCounts = append(s.fileCounts, 0)
	s.dirsByDepth.Add(float64(s.depthBin(depth)))
	return nil
}

// AddFile folds the next file record into the accumulators. It is
// deliberately best-effort about the record's directory reference: a stats
// pass must tolerate whatever an Image holds (structural validation is
// TreeSink's job), so an out-of-range DirID only skips the per-directory
// counter; every other distribution reads the record's own fields.
func (s *ImageStats) AddFile(f File) error {
	s.files++
	s.totalBytes += f.Size
	if f.DirID >= 0 && f.DirID < len(s.fileCounts) {
		s.fileCounts[f.DirID]++
	}
	if f.Depth > s.maxFileDepth {
		s.maxFileDepth = f.Depth
	}
	s.filesBySize.Add(float64(f.Size))
	s.bytesBySize.AddWeighted(float64(f.Size), float64(f.Size))
	bin := s.depthBin(f.Depth)
	s.filesByDepth.Add(float64(bin))
	s.bytesByDepth[bin] += float64(f.Size)
	s.countByDepth[bin]++
	ext := strings.ToLower(f.Ext)
	if ext == "" {
		ext = "null"
	}
	s.extFiles[ext]++
	s.extBytes[ext] += f.Size
	return nil
}

// FileCount returns the number of file records seen.
func (s *ImageStats) FileCount() int { return s.files }

// DirCount returns the number of directory records seen.
func (s *ImageStats) DirCount() int { return len(s.dirDepths) }

// TotalBytes returns the byte total of the file records seen.
func (s *ImageStats) TotalBytes() int64 { return s.totalBytes }

// MaxFileDepth returns the deepest file depth seen.
func (s *ImageStats) MaxFileDepth() int { return s.maxFileDepth }

// FilesBySize returns the files-by-size histogram (power-of-two bins).
func (s *ImageStats) FilesBySize() *stats.Histogram { return s.filesBySize }

// BytesBySize returns the bytes-by-containing-file-size histogram.
func (s *ImageStats) BytesBySize() *stats.Histogram { return s.bytesBySize }

// FilesByDepth returns the per-depth file count histogram.
func (s *ImageStats) FilesByDepth() *stats.Histogram { return s.filesByDepth }

// DirsByDepth returns the per-depth directory count histogram.
func (s *ImageStats) DirsByDepth() *stats.Histogram { return s.dirsByDepth }

// countHistogram builds a unit-bin histogram over a per-directory counter.
func (s *ImageStats) countHistogram(counts []int32, maxBins int) *stats.Histogram {
	h := stats.NewHistogram(stats.UnitEdges(maxBins))
	for _, n := range counts {
		v := int(n)
		if v >= maxBins {
			v = maxBins - 1
		}
		h.Add(float64(v))
	}
	return h
}

// DirsBySubdir returns directory counts by subdirectory count.
func (s *ImageStats) DirsBySubdir() *stats.Histogram {
	return s.countHistogram(s.subdirs, s.cfg.CountBins)
}

// DirsByFileCount returns directory counts by contained-file count.
func (s *ImageStats) DirsByFileCount() *stats.Histogram {
	return s.countHistogram(s.fileCounts, s.cfg.CountBins)
}

// MeanBytesByDepth returns the mean file size at each file depth
// (0..DepthBins-1); depths without files report zero.
func (s *ImageStats) MeanBytesByDepth() []float64 {
	out := make([]float64, DepthBins)
	for i := range out {
		if s.countByDepth[i] > 0 {
			out[i] = s.bytesByDepth[i] / s.countByDepth[i]
		}
	}
	return out
}

// ExtensionShare summarizes the share of files and bytes per extension.
type ExtensionShare struct {
	Ext       string
	Files     int
	Bytes     int64
	FileFrac  float64
	BytesFrac float64
}

// TopExtensions returns the top n extensions by file count, with an "others"
// aggregate appended covering the remainder (the Figure 2(e) view).
// Extensions are lower-cased and "" is reported as "null".
func (s *ImageStats) TopExtensions(n int) []ExtensionShare {
	shares := make([]ExtensionShare, 0, len(s.extFiles))
	for ext, files := range s.extFiles {
		shares = append(shares, ExtensionShare{Ext: ext, Files: files, Bytes: s.extBytes[ext]})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Files != shares[j].Files {
			return shares[i].Files > shares[j].Files
		}
		return shares[i].Ext < shares[j].Ext
	})
	totalFiles := float64(s.files)
	totalBytes := float64(s.totalBytes)
	var out []ExtensionShare
	var restFiles int
	var restBytes int64
	for i, sh := range shares {
		if i < n {
			if totalFiles > 0 {
				sh.FileFrac = float64(sh.Files) / totalFiles
			}
			if totalBytes > 0 {
				sh.BytesFrac = float64(sh.Bytes) / totalBytes
			}
			out = append(out, sh)
		} else {
			restFiles += sh.Files
			restBytes += sh.Bytes
		}
	}
	others := ExtensionShare{Ext: "others", Files: restFiles, Bytes: restBytes}
	if totalFiles > 0 {
		others.FileFrac = float64(restFiles) / totalFiles
	}
	if totalBytes > 0 {
		others.BytesFrac = float64(restBytes) / totalBytes
	}
	out = append(out, others)
	return out
}

// ExtensionFractions returns the fraction of files carrying each of the
// named extensions, in order, with any remaining mass reported under
// "others" as the final element. Extension "null" matches files with no
// extension.
func (s *ImageStats) ExtensionFractions(names []string) []float64 {
	total := float64(s.files)
	out := make([]float64, len(names)+1)
	if total == 0 {
		return out
	}
	index := map[string]int{}
	for i, n := range names {
		index[strings.ToLower(n)] = i
	}
	// Iterate extensions in sorted order: out[i] accumulates float mass, and
	// float addition is not associative, so map order would leak into the
	// low bits of the reported fractions.
	exts := make([]string, 0, len(s.extFiles))
	for ext := range s.extFiles {
		exts = append(exts, ext)
	}
	sort.Strings(exts)
	counted := 0
	for _, ext := range exts {
		files := s.extFiles[ext]
		if i, ok := index[ext]; ok {
			out[i] += float64(files)
			counted += files
		}
	}
	for i := range names {
		out[i] /= total
	}
	out[len(names)] = float64(s.files-counted) / total
	return out
}

// Stats folds the whole image into a fresh accumulator with the given bin
// sizing in one replay: the one way to read a retained image's statistics.
func (img *Image) Stats(cfg StatsConfig) *ImageStats {
	st := NewImageStats(cfg)
	// Replaying a validated in-memory image cannot fail the accumulator's
	// structural checks.
	if err := img.StreamRecords(st); err != nil {
		panic(fmt.Sprintf("fsimage: streaming retained image into stats: %v", err))
	}
	return st
}
