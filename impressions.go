// Package impressions is the public API of the Impressions framework, a
// reproduction of "Generating Realistic Impressions for File-System
// Benchmarking" (Agrawal, Arpaci-Dusseau, Arpaci-Dusseau; FAST 2009).
//
// Impressions generates statistically accurate file-system images — directory
// trees, file metadata (sizes, depths, extensions), file content, and on-disk
// layout — from a set of empirical distributions that the user can override
// individually. Every image is exactly reproducible from its reported
// specification (distributions, parameter values, and random seeds).
//
// # Quick start
//
//	cfg := impressions.Config{FSSizeBytes: 4 << 30} // 4 GB image, defaults otherwise
//	res, err := impressions.Generate(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Image.Summary())
//	_, err = res.Image.Materialize("/tmp/image", impressions.MaterializeOptions{})
//
// The packages under internal/ contain the statistical machinery
// (distributions, goodness-of-fit tests, the multiple-constraint resolver,
// interpolation), the namespace generative model, content generators, the
// simulated disk, workload and desktop-search simulators, and the experiment
// harness that regenerates every table and figure of the paper.
//
// # Parallelism
//
// Generation and materialization run on a sharded worker pool sized by
// Config.Parallelism and MaterializeOptions.Parallelism (0 = all CPUs). All
// randomness is drawn from RNG streams derived from the master seed and
// stable shard keys, so a fixed seed yields a byte-identical image at every
// parallelism level; see README.md for the pipeline decomposition.
//
// # Cancellation
//
// Every long-running entry point has a context-aware form — GenerateContext,
// GenerateStreamContext, MaterializeOptions.Context, Execute — whose worker
// loops poll the context between shards (generation) or files (materialization,
// digests). Cancelling returns ctx.Err() promptly without affecting
// determinism: partial results are discarded, never reused. The plain forms
// are thin wrappers over context.Background().
//
// # Distributed generation and serving
//
// The same pipeline scales out: PartitionPlan partitions an image into
// shard plans, one fragment each, Execute runs one shard anywhere —
// onto a DirTarget, a TarTarget, or TarTarget(io.Discard) when only the
// manifest is wanted — and Merge verifies the manifests against a replay of
// the plan into the canonical digest (see the distributed re-exports in this
// package). cmd/impressionsd wraps it all as a long-running HTTP
// service with a content-addressed plan cache keyed by SpecFingerprint.
//
// # Errors
//
// Failures worth dispatching on are wrapped in three sentinels, matched with
// errors.Is: ErrInvalidSpec (the request can never succeed as written),
// ErrPlanVersion (artifact from an incompatible format version), and
// ErrManifestIntegrity (artifact failed an integrity check).
package impressions

import (
	"context"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Sentinel errors, for errors.Is dispatch. The HTTP service maps them to
// status codes (400, 409, 500 respectively); programmatic callers can do the
// same kind of triage without string matching.
var (
	// ErrInvalidSpec marks a spec or config that can never generate: negative
	// counts, unknown distribution names, out-of-range parameters.
	ErrInvalidSpec = fsimage.ErrInvalidSpec
	// ErrPlanVersion marks a plan or manifest from an incompatible wire
	// format version (or digest formula) — rebuild it with this version.
	ErrPlanVersion = fsimage.ErrPlanVersion
	// ErrManifestIntegrity marks an artifact that failed an integrity check:
	// a tampered manifest, a corrupted plan chunk, a truncated stream.
	ErrManifestIntegrity = fsimage.ErrManifestIntegrity
)

// Config is the user-facing configuration for generating one image. It is an
// alias of the core configuration; see internal/core for field documentation.
type Config = core.Config

// Result bundles the generated image, the reproducibility report, and the
// simulated disk (when disk simulation was requested).
type Result = core.Result

// Image is an in-memory file-system image.
type Image = fsimage.Image

// Spec records everything needed to reproduce an image.
type Spec = fsimage.Spec

// Report is the reproducibility and accuracy report produced with each image.
type Report = fsimage.Report

// MaterializeOptions controls writing an image to a real file system.
type MaterializeOptions = fsimage.MaterializeOptions

// RecordSink consumes an image's metadata stream (directories in ID order,
// then files in ID order) — the out-of-core alternative to retaining an
// Image. See fsimage for the provided sinks: TreeSink (validate and rebuild
// the directory tree), ChunkEncoder (serialize), DigestBuilder (canonical
// digest), ImageStats (histograms), MaterializeSink (write to disk under the
// tree the caller holds, a batch of records at a time; Close it when the
// stream is through).
type RecordSink = fsimage.RecordSink

// RecordSource is anything that can replay an image's metadata records into
// a RecordSink; *Image implements it.
type RecordSource = fsimage.RecordSource

// Accuracy holds per-parameter agreement between a generated image and the
// desired dataset curves (the Table 3 metrics).
type Accuracy = core.Accuracy

// Modes of operation (§3.1 of the paper).
const (
	ModeAutomated     = core.ModeAutomated
	ModeUserSpecified = core.ModeUserSpecified
)

// Content policy kinds.
const (
	ContentDefault        = content.KindDefault
	ContentTextSingleWord = content.KindTextSingleWord
	ContentTextModel      = content.KindTextModel
	ContentImage          = content.KindImage
	ContentBinary         = content.KindBinary
	ContentZero           = content.KindZero
)

// Tree shapes.
const (
	TreeGenerative = namespace.ShapeGenerative
	TreeFlat       = namespace.ShapeFlat
	TreeDeep       = namespace.ShapeDeep
)

// Generate validates the configuration, fills in Table 2 defaults for any
// unspecified parameter, and generates an image.
func Generate(cfg Config) (*Result, error) { return core.GenerateImage(cfg) }

// GenerateContext is Generate with cancellation: the metadata phases check
// ctx between passes and the sharded worker loops poll it per shard, so a
// caller (a server, a test with a deadline) can abandon a generation mid-run
// and get ctx.Err() back promptly. Cancellation never changes what a
// completed run produces — partial state is discarded, not reused.
func GenerateContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.GenerateImageContext(ctx, cfg)
}

// GenerateStream generates an image and streams its metadata records into
// sink instead of retaining an Image, so memory stays bounded by what the
// sink keeps — the path for images too large to hold (10^8 files and up).
// The records are identical to Generate's for the same configuration.
func GenerateStream(cfg Config, sink RecordSink) (Report, error) {
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return Report{}, err
	}
	return gen.GenerateStream(sink)
}

// GenerateStreamContext is GenerateStream with cancellation: ctx is honored
// through the metadata pass and polled between chunks of streamed records,
// so a sink feeding a dead consumer stops promptly.
func GenerateStreamContext(ctx context.Context, cfg Config, sink RecordSink) (Report, error) {
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return Report{}, err
	}
	return gen.GenerateStreamContext(ctx, sink)
}

// NewGenerator returns a reusable generator for the configuration. Successive
// Generate calls with the same configuration produce identical images.
func NewGenerator(cfg Config) (*core.Generator, error) { return core.NewGenerator(cfg) }

// MeasureAccuracy compares a generated image against the desired curves of
// the default dataset, returning per-parameter MDCC values (Table 3).
func MeasureAccuracy(img *Image, useSpecial bool) Accuracy {
	return core.MeasureAccuracy(img, dataset.Default(), useSpecial)
}

// ScanDirectory walks a real directory tree and returns it as an Image, so
// existing file systems can be measured and their distributions compared or
// fed back into generation.
func ScanDirectory(root string) (*Image, error) { return fsimage.Scan(root) }

// DefaultParameterTable returns the paper's Table 2 "parameter -> default
// model" listing.
func DefaultParameterTable() map[string]string { return core.DefaultParameterTable() }
