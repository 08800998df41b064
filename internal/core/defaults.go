// Package core implements the Impressions framework proper: configuration
// (the Table 2 parameter set with defaults), the automated and user-specified
// modes of operation, the image-generation pipeline (namespace creation, file
// sizing under constraints, extension assignment, file placement, optional
// on-disk layout simulation), accuracy self-checks, and the reproducibility
// report.
//
// The metadata phases, the record replay and the placement walk are each
// written once, over a column store (columns.go) whose shards live on the
// heap or, under Config.SpillDir, in temp files: the backing changes what a
// pass costs, never a byte it emits. The file-size pool is drawn, and the
// sum tolerance tested, by internal/constraint alone; core only hands it the
// sizes column to draw into.
package core

import (
	"impressions/internal/dataset"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// Default parameter values from Table 2 of the paper.
const (
	// DefaultFileSizeBodyWeight is α1 of the hybrid file-size model.
	DefaultFileSizeBodyWeight = dataset.FileSizeBodyWeight
	// DefaultFileSizeMu and DefaultFileSizeSigma parameterize the lognormal
	// body of file sizes by count.
	DefaultFileSizeMu    = dataset.FileSizeMu
	DefaultFileSizeSigma = dataset.FileSizeSigma
	// DefaultParetoK and DefaultParetoXm parameterize the Pareto tail.
	DefaultParetoK  = dataset.ParetoK
	DefaultParetoXm = dataset.ParetoXm
	// DefaultFileDepthLambda is the Poisson rate for file count with depth.
	DefaultFileDepthLambda = dataset.FileDepthLambda
	// DefaultDirFilesDegree and DefaultDirFilesOffset parameterize the
	// inverse-polynomial distribution of directory sizes in files.
	DefaultDirFilesDegree = 2.0
	DefaultDirFilesOffset = 2.36
	// DefaultLayoutScore is the default (perfect) on-disk layout score.
	DefaultLayoutScore = 1.0
	// DefaultSeed is the seed used when the caller does not provide one.
	DefaultSeed = 20090225
)

// DefaultFileSizeDistribution returns the Table 2 hybrid model for file sizes
// by count, capped at the dataset's maximum observed file size.
func DefaultFileSizeDistribution() stats.Hybrid {
	return dataset.DefaultFileSizeModel()
}

// DefaultBytesBySizeDistribution returns the Table 2 mixture-of-lognormals
// model for file sizes by containing bytes.
func DefaultBytesBySizeDistribution() stats.Mixture {
	return dataset.DefaultBytesBySizeModel()
}

// DefaultFileDepthDistribution returns the Poisson(6.49) file-depth model.
func DefaultFileDepthDistribution() stats.Poisson {
	return stats.NewPoisson(DefaultFileDepthLambda)
}

// DefaultDirFileCountDistribution returns the inverse-polynomial(2, 2.36)
// model of directory sizes in files.
func DefaultDirFileCountDistribution() stats.InversePolynomial {
	return stats.NewInversePolynomial(DefaultDirFilesDegree, DefaultDirFilesOffset, 4096)
}

// DefaultSpecialDirectories converts the dataset's special-directory table to
// the namespace package's representation.
func DefaultSpecialDirectories() []namespace.SpecialDir {
	ds := dataset.DefaultSpecialDirectories()
	out := make([]namespace.SpecialDir, len(ds))
	for i, s := range ds {
		// The dataset records the depth of the files; the directory that
		// holds them sits one level shallower in the namespace.
		dirDepth := s.Depth - 1
		if dirDepth < 1 {
			dirDepth = 1
		}
		out[i] = namespace.SpecialDir{Name: s.Name, Depth: dirDepth, Bias: s.Bias, FileShare: s.FileShare}
	}
	return out
}

// DefaultParameterTable returns the Table 2 "parameter -> default model"
// listing as printable strings, which the CLI exposes via -print-defaults and
// reports embed for reproducibility.
func DefaultParameterTable() map[string]string {
	return map[string]string{
		"directory count with depth":      "generative model (parent weight C(d)+2)",
		"directory size (subdirectories)": "generative model (parent weight C(d)+2)",
		"file size by count":              DefaultFileSizeDistribution().Name(),
		"file size by containing bytes":   DefaultBytesBySizeDistribution().Name(),
		"extension popularity":            "percentile values (top 20 by count)",
		"file count with depth":           DefaultFileDepthDistribution().Name(),
		"bytes with depth":                "mean file size values by depth",
		"directory size (files)":          DefaultDirFileCountDistribution().Name(),
		"file count with depth (special)": "conditional probabilities (special-directory bias)",
		"degree of fragmentation":         "layout score (1.0)",
	}
}
