package core

import (
	"fmt"
	"math"

	"impressions/internal/content"
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// Mode selects how much input the user provides (§3.1 of the paper).
type Mode string

const (
	// ModeAutomated generates a representative image from minimal input
	// (typically just the desired file-system size), relying on default
	// distributions.
	ModeAutomated Mode = "automated"
	// ModeUserSpecified lets the user control individual parameters; any
	// parameter left at its zero value still falls back to the defaults.
	ModeUserSpecified Mode = "user-specified"
)

// Config is the complete set of user-controllable knobs for generating one
// file-system image. The zero value plus a FSSizeBytes (or NumFiles) is a
// valid automated-mode configuration; every other field has a sensible
// Table 2 default applied by Normalize.
type Config struct {
	// Mode is informational (recorded in the report).
	Mode Mode

	// Seed is the master random seed; 0 selects DefaultSeed.
	Seed int64

	// FSSizeBytes is the desired total used space. If zero it is derived
	// from NumFiles and the mean of the file-size distribution.
	FSSizeBytes int64
	// NumFiles is the desired number of files. If zero it is derived from
	// FSSizeBytes and the mean of the file-size distribution.
	NumFiles int
	// NumDirs is the desired number of directories. If zero it is derived as
	// NumFiles / DefaultFilesPerDir.
	NumDirs int

	// FileSizeDist is the distribution of file sizes by count (D3 in §3.4).
	// Nil selects the Table 2 hybrid model.
	FileSizeDist stats.Distribution
	// FileDepthLambda is the Poisson rate of the file-depth model; 0 selects
	// the Table 2 default (6.49).
	FileDepthLambda float64
	// DirFileDegree / DirFileOffset parameterize the inverse-polynomial model
	// of directory file counts; 0 selects the Table 2 defaults.
	DirFileDegree float64
	DirFileOffset float64

	// TreeShape selects generative (default), flat, or deep namespaces.
	TreeShape namespace.TreeShape
	// UseSpecialDirectories biases placement towards special directories.
	UseSpecialDirectories bool
	// SpecialDirectories overrides the default special-directory set.
	SpecialDirectories []namespace.SpecialDir
	// DisableSizeDepthCoupling turns off the mean-bytes-per-depth factor of
	// the multiplicative depth model (ablation: Poisson-only placement).
	DisableSizeDepthCoupling bool

	// ContentKind selects the content policy (default, text-1word,
	// text-model, image, binary, zero).
	ContentKind content.Kind

	// LayoutScore is the target on-disk layout score in [0,1]; 0 selects the
	// default of 1.0 (perfect layout). Values below 1 enable the fragmenter.
	LayoutScore float64
	// SimulateDisk builds the simulated block device and allocates every file
	// on it (required for layout scores below 1 and for the workload
	// simulators).
	SimulateDisk bool
	// DiskCapacityBytes sets the simulated disk capacity; 0 selects twice the
	// file-system size.
	DiskCapacityBytes int64

	// Beta is the allowed relative error between requested and achieved total
	// size (0 selects 0.05); Lambda is the maximum oversampling factor
	// (0 selects 1.0).
	Beta   float64
	Lambda float64

	// Dataset supplies the desired empirical curves (extension popularity,
	// mean bytes per depth, ...). Nil selects dataset.Default().
	Dataset *dataset.Dataset

	// FilesPerDir overrides the files-per-directory ratio used when NumDirs
	// is derived (0 selects 5, matching Table 6's 20000 files / 4000 dirs).
	FilesPerDir int

	// Parallelism is the number of workers used for the sharded phases of the
	// pipeline (metadata assignment and, by default, materialization).
	// 0 selects runtime.NumCPU(); 1 forces the serial reference path. The
	// generated image is byte-identical for a fixed seed at every parallelism
	// level: all randomness is drawn from RNG streams derived from stable
	// shard keys, never from worker scheduling.
	Parallelism int

	// SpillDir, when non-empty, makes the metadata pass spill its per-file
	// primitive columns to temp files under this directory instead of
	// holding them on the heap, bounding the pass's live memory by O(dirs)
	// regardless of file count. The replayed records are byte-identical to
	// the in-memory pass. Spill mode serves streaming consumers only
	// (GenerateStream and the planner); retained-image generation rejects
	// it. Not part of the reproducibility spec: it never affects output.
	SpillDir string
}

// DefaultFilesPerDir is the files-to-directories ratio used when the
// directory count is derived (Table 6's images use 5).
const DefaultFilesPerDir = 5

// ErrEmptyConfig is returned when neither a file-system size nor a file count
// is specified. It wraps fsimage.ErrInvalidSpec.
var ErrEmptyConfig = fmt.Errorf("core: config needs FSSizeBytes or NumFiles (%w)", fsimage.ErrInvalidSpec)

// Normalize fills in defaults and derives missing counts. It returns a copy;
// the receiver is not modified.
func (c Config) Normalize() (Config, error) {
	out := c
	if out.Mode == "" {
		out.Mode = ModeAutomated
	}
	if out.Seed == 0 {
		out.Seed = DefaultSeed
	}
	if out.FileSizeDist == nil {
		out.FileSizeDist = DefaultFileSizeDistribution()
	}
	if out.FileDepthLambda <= 0 {
		out.FileDepthLambda = DefaultFileDepthLambda
	}
	if out.DirFileDegree <= 0 {
		out.DirFileDegree = DefaultDirFilesDegree
	}
	if out.DirFileOffset <= 0 {
		out.DirFileOffset = DefaultDirFilesOffset
	}
	if out.ContentKind == "" {
		out.ContentKind = content.KindDefault
	}
	if out.LayoutScore <= 0 {
		out.LayoutScore = DefaultLayoutScore
	}
	if out.LayoutScore > 1 {
		out.LayoutScore = 1
	}
	if out.LayoutScore < 1 {
		out.SimulateDisk = true
	}
	if out.Beta <= 0 {
		out.Beta = 0.05
	}
	if out.Lambda <= 0 {
		out.Lambda = 1.0
	}
	if out.Dataset == nil {
		out.Dataset = dataset.Default()
	}
	if out.FilesPerDir <= 0 {
		out.FilesPerDir = DefaultFilesPerDir
	}
	if out.SpecialDirectories == nil {
		out.SpecialDirectories = DefaultSpecialDirectories()
	}

	if out.FSSizeBytes <= 0 && out.NumFiles <= 0 {
		return Config{}, ErrEmptyConfig
	}
	meanSize := meanFileSize(out.FileSizeDist)
	if out.NumFiles <= 0 {
		out.NumFiles = int(float64(out.FSSizeBytes) / meanSize)
		if out.NumFiles < 1 {
			out.NumFiles = 1
		}
	}
	if out.FSSizeBytes <= 0 {
		out.FSSizeBytes = int64(float64(out.NumFiles) * meanSize)
	}
	if out.NumDirs <= 0 {
		out.NumDirs = out.NumFiles / out.FilesPerDir
		if out.NumDirs < 1 {
			out.NumDirs = 1
		}
	}
	if out.DiskCapacityBytes <= 0 {
		out.DiskCapacityBytes = out.FSSizeBytes * 2
		if out.DiskCapacityBytes < 64*1024*1024 {
			out.DiskCapacityBytes = 64 * 1024 * 1024
		}
	}
	return out, nil
}

// meanFileSize is the mean file size Normalize derives a missing count or
// size from: the size model's mean (the default model's when d is nil), or
// 256 KiB when that is zero or negative.
func meanFileSize(d stats.Distribution) float64 {
	if d == nil {
		d = DefaultFileSizeDistribution()
	}
	m := d.Mean()
	if m <= 0 {
		m = 256 * 1024
	}
	return m
}

// Validate reports configuration errors that Normalize cannot repair. Every
// failure wraps fsimage.ErrInvalidSpec, so callers embedding generation (the
// HTTP daemon in particular) can classify bad input with errors.Is.
func (c Config) Validate() error {
	if c.FSSizeBytes < 0 {
		return fmt.Errorf("core: negative file-system size %d (%w)", c.FSSizeBytes, fsimage.ErrInvalidSpec)
	}
	if c.NumFiles < 0 {
		return fmt.Errorf("core: negative file count %d (%w)", c.NumFiles, fsimage.ErrInvalidSpec)
	}
	if c.NumDirs < 0 {
		return fmt.Errorf("core: negative directory count %d (%w)", c.NumDirs, fsimage.ErrInvalidSpec)
	}
	// Written so that NaN fails them too.
	if !(c.LayoutScore >= 0 && c.LayoutScore <= 1) {
		return fmt.Errorf("core: layout score %.3f outside [0,1] (%w)", c.LayoutScore, fsimage.ErrInvalidSpec)
	}
	if !(c.Beta >= 0 && c.Beta < 1) {
		return fmt.Errorf("core: beta %.3f outside [0,1) (%w)", c.Beta, fsimage.ErrInvalidSpec)
	}
	// Normalize derives the size from the file count, or the count from the
	// size, through the mean file size. Go leaves a float-to-integer
	// conversion out of range implementation-defined, so a derived value
	// that is not finite or does not fit is refused here.
	if (c.FSSizeBytes <= 0) != (c.NumFiles <= 0) {
		mean := meanFileSize(c.FileSizeDist)
		if size := float64(c.NumFiles) * mean; c.FSSizeBytes <= 0 && !(size < math.MaxInt64) {
			return fmt.Errorf("core: %d files at a mean size of %g bytes make an image size past int64 (%w)", c.NumFiles, mean, fsimage.ErrInvalidSpec)
		}
		if files := float64(c.FSSizeBytes) / mean; c.NumFiles <= 0 && !(files < math.MaxInt) {
			return fmt.Errorf("core: %d bytes at a mean file size of %g bytes make a file count past int (%w)", c.FSSizeBytes, mean, fsimage.ErrInvalidSpec)
		}
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative parallelism %d (%w)", c.Parallelism, fsimage.ErrInvalidSpec)
	}
	if c.ContentKind != "" && !c.ContentKind.Known() {
		return fmt.Errorf("core: unknown content kind %q (%w)", c.ContentKind, fsimage.ErrInvalidSpec)
	}
	return nil
}

// DistributionTable renders the configuration's distributions as strings for
// the reproducibility report.
func (c Config) DistributionTable() map[string]string {
	table := DefaultParameterTable()
	if c.FileSizeDist != nil {
		table["file size by count"] = c.FileSizeDist.Name()
	}
	if c.FileDepthLambda > 0 {
		table["file count with depth"] = stats.NewPoisson(c.FileDepthLambda).Name()
	}
	if c.DirFileDegree > 0 && c.DirFileOffset > 0 {
		table["directory size (files)"] = stats.NewInversePolynomial(c.DirFileDegree, c.DirFileOffset, 4096).Name()
	}
	table["degree of fragmentation"] = fmt.Sprintf("layout score (%.2f)", c.LayoutScore)
	return table
}
