// Command impressions generates statistically accurate file-system images,
// the command-line interface to the Impressions framework (§3.1 of the
// paper). In the automated mode only the desired file-system size (or file
// count) is needed; the user-specified mode exposes the individual Table 2
// knobs.
//
// Besides single-process generation, the command exposes the distributed
// pipeline as subcommands: `plan` resolves the metadata and partitions the
// namespace into shards, `worker` executes one shard in isolation (workers
// are plain processes — run them on any shared-nothing fleet), `merge`
// stitches the shard manifests back into one verified image, and `distrun`
// runs plan → N local worker processes → merge in one call: the fleet
// scheduler in process, its workers writing in place under the shard journal
// (`worker -work`), so a failed or killed run is resumed by running it again.
//
// Fleet mode hands the orchestration to a running impressionsd: `worker
// -join <url>` turns this process into a lease-pulling fleet worker with
// mid-shard resume, and `fleetrun` submits a whole run and polls it to the
// canonical digest.
//
// Direct image sinks skip the VFS entirely: `-format tar` or `-format
// squashfs` serializes the image straight into an archive/filesystem file
// with sequential writes (no per-file syscalls, no mkfs, no root), `worker
// -format tar` emits one shard as a tar segment, and `stitch` merges the
// segments into the byte-identical monolithic archive.
//
// Examples:
//
//	impressions -size 4.55GB -out /tmp/image
//	impressions -files 20000 -dirs 4000 -content text-model -out /tmp/image
//	impressions -size 1GB -layout 0.95 -seed 42 -report report.json -out /tmp/image
//	impressions -files 100000 -seed 42 -format tar -out image.tar -digest
//	impressions -files 100000 -seed 42 -format squashfs -out image.squashfs
//	impressions -print-defaults
//	impressions plan -files 20000 -seed 42 -shards 8 -plan plan.json
//	impressions worker -plan plan.json -shard 3 -out /mnt/img -manifest shard3.json
//	impressions worker -plan plan.json -shard 3 -format tar -out seg3.tar -manifest shard3.json
//	impressions stitch -plan plan.json -out image.tar seg0.tar seg1.tar seg2.tar
//	impressions merge -plan plan.json -print-digest shard*.json
//	impressions distrun -files 20000 -seed 42 -shards 4 -out /tmp/image
//	impressions worker -join http://127.0.0.1:7077 -out /mnt/img -work /var/tmp/journals
//	impressions fleetrun -base http://127.0.0.1:7077 -files 20000 -seed 42 -shards 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/serve"
	"impressions/internal/stats"
)

// userFileSizeDist builds the hybrid file-size model with a user-overridden
// lognormal body and the default Pareto tail.
func userFileSizeDist(mu, sigma float64) stats.Distribution {
	return stats.NewHybrid(
		stats.NewLognormal(mu, sigma),
		stats.NewPareto(core.DefaultParetoK, core.DefaultParetoXm),
		core.DefaultFileSizeBodyWeight,
	)
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks argument/flag problems so Main can exit with the
// conventional usage status (2) instead of the runtime-failure status (1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Main runs the command and returns the process exit code: 0 on success
// (including -h/-help), 2 on flag or usage errors, 1 on runtime failures.
// Every path funnels through here — run() returns errors instead of calling
// os.Exit, so no parse failure can slip out with status 0.
func Main(args []string, stdout, stderr io.Writer) int {
	err := run(args, stdout, stderr)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usageError{}):
		fmt.Fprintln(stderr, "impressions:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "impressions:", err)
		return 1
	}
}

// run dispatches to a subcommand; a leading flag (or nothing) selects the
// classic single-process generation path.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, rest := args[0], args[1:]
		switch sub {
		case "generate":
			return runGenerate(rest, stdout, stderr)
		case "plan":
			return runPlan(rest, stdout, stderr)
		case "worker":
			return runWorker(rest, stdout, stderr)
		case "merge":
			return runMerge(rest, stdout, stderr)
		case "stitch":
			return runStitch(rest, stdout, stderr)
		case "distrun":
			return runDistrun(rest, stdout, stderr)
		case "fleetrun":
			return runFleetrun(rest, stdout, stderr)
		default:
			return usagef("unknown subcommand %q (want generate, plan, worker, merge, stitch, distrun, or fleetrun)", sub)
		}
	}
	return runGenerate(args, stdout, stderr)
}

// parseFlags wraps FlagSet.Parse so ordinary parse failures surface as
// usage errors (exit status 2) while -h/-help stays a clean exit 0.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

// parseAllFlags is parseFlags for a command without positional arguments:
// parsing stops at the first one, and would drop what follows it in silence.
func parseAllFlags(fs *flag.FlagSet, args []string) error {
	err := parseFlags(fs, args)
	if err == nil && fs.NArg() > 0 {
		err = usagef("unexpected argument %q: %s takes flags only, and would ignore everything after it", fs.Arg(0), fs.Name())
	}
	return err
}

// genFlags registers the generation-config flags shared by the generate,
// plan, and distrun subcommands.
type genFlags struct {
	size    *string
	files   *int
	dirs    *int
	seed    *int64
	content *string
	layout  *float64
	tree    *string
	special *bool
	mu      *float64
	sigma   *float64
	jobs    *int
}

func newGenFlags(fs *flag.FlagSet) *genFlags {
	return &genFlags{
		size:    fs.String("size", "", "desired file-system size (e.g. 500MB, 4.55GB)"),
		files:   fs.Int("files", 0, "number of files (derived from -size if omitted)"),
		dirs:    fs.Int("dirs", 0, "number of directories (derived from -files if omitted)"),
		seed:    fs.Int64("seed", 0, "random seed (0 = default seed)"),
		content: fs.String("content", "default", "content policy: default, text-1word, text-model, image, binary, zero"),
		layout:  fs.Float64("layout", 1.0, "target on-disk layout score in (0,1]"),
		tree:    fs.String("tree", "generative", "tree shape: generative, flat, deep"),
		special: fs.Bool("special-dirs", false, "bias placement towards special directories (Windows, Program Files, web cache)"),
		mu:      fs.Float64("size-mu", 0, "override lognormal mu of the file-size body"),
		sigma:   fs.Float64("size-sigma", 0, "override lognormal sigma of the file-size body"),
		jobs:    fs.Int("j", 0, "parallel workers for generation and materialization; with -format tar/squashfs, the workers generating and hashing file content behind the one image writer (0 = all CPUs, 1 = one worker); the image is byte-identical at any level"),
	}
}

func (g *genFlags) config() (core.Config, error) {
	cfg := core.Config{
		Seed:                  *g.seed,
		NumFiles:              *g.files,
		NumDirs:               *g.dirs,
		ContentKind:           content.Kind(*g.content),
		LayoutScore:           *g.layout,
		UseSpecialDirectories: *g.special,
		Parallelism:           *g.jobs,
	}
	if *g.size != "" {
		bytes, err := parseSize(*g.size)
		if err != nil {
			return core.Config{}, usageError{err}
		}
		cfg.FSSizeBytes = bytes
	}
	if !cfg.ContentKind.Known() {
		return core.Config{}, usagef("unknown content policy %q", *g.content)
	}
	shape, err := namespace.ParseShape(strings.ToLower(*g.tree))
	if err != nil {
		return core.Config{}, usagef("unknown tree shape %q", *g.tree)
	}
	cfg.TreeShape = shape
	if *g.mu < 0 || *g.sigma < 0 {
		return core.Config{}, usagef("-size-mu and -size-sigma must be positive (0 keeps the default)")
	}
	if *g.mu > 0 || *g.sigma > 0 {
		cfg.Mode = core.ModeUserSpecified
		bodyMu, bodySigma := core.DefaultFileSizeMu, core.DefaultFileSizeSigma
		if *g.mu > 0 {
			bodyMu = *g.mu
		}
		if *g.sigma > 0 {
			bodySigma = *g.sigma
		}
		cfg.FileSizeDist = userFileSizeDist(bodyMu, bodySigma)
	}
	// What the flags alone get wrong is a usage error, raised before any work.
	if err := cfg.Validate(); err != nil {
		return core.Config{}, usageError{err}
	}
	return cfg, nil
}

// runGenerate is the single-process path: resolve the metadata, report, and
// replay it once into the output the flags name. It holds no file record:
// the metadata columns are replayed, and every sink keeps a bounded window.
func runGenerate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		outFlag       = fs.String("out", "", "directory (-format dir) or image file (-format tar/squashfs) to materialize into (omit for a dry run)")
		formatFlag    = fs.String("format", "dir", "materialization sink: dir (VFS tree), tar (streamed archive), squashfs (mountable image)")
		metadataOnly  = fs.Bool("metadata-only", false, "create files with correct sizes but no content (fast)")
		reportFlag    = fs.String("report", "", "write the JSON reproducibility report to this file")
		printDefaults = fs.Bool("print-defaults", false, "print the Table 2 parameter defaults and exit")
		digestFlag    = fs.Bool("digest", false, "print the canonical SHA-256 image digest (computed without touching disk)")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}

	if *printDefaults {
		printDefaultTable(stdout)
		return nil
	}

	cfg, err := gen.config()
	if err != nil {
		return err
	}
	// Usage errors come before any work: generation can take minutes, and
	// its summary must not precede a complaint about the flags.
	format := strings.ToLower(*formatFlag)
	switch format {
	case "":
		format = "dir"
	case "dir", "tar", "squashfs":
	default:
		return usagef("unknown -format %q (want dir, tar, or squashfs)", *formatFlag)
	}
	if format != "dir" && *outFlag == "" {
		return usagef("-format %s requires -out <file>", format)
	}
	g, err := core.NewGenerator(cfg)
	if err != nil {
		return err
	}
	m, err := g.ResolveMetadataContext(context.Background())
	if err != nil {
		return err
	}
	defer m.Close()
	report, _, err := m.Report()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, m.Summary())
	if _, err := report.WriteTo(stdout); err != nil {
		return err
	}

	opts := imgfmt.Options{
		Registry:     content.NewRegistry(cfg.ContentKind),
		Seed:         m.Spec().Seed,
		MetadataOnly: *metadataOnly,
		Parallelism:  *gen.jobs,
	}
	// When both the digest and a written image are wanted, the one write pass
	// also hashes, instead of generating every file's content twice.
	var digest string
	if *outFlag != "" {
		if digest, err = streamImage(m, format, *outFlag, opts, *digestFlag && !*metadataOnly, stdout); err != nil {
			return err
		}
	}
	if *digestFlag {
		if digest == "" {
			if *outFlag != "" {
				// The digest always describes the image's full content, which a
				// second replay now generates; a metadata-only tree holds none of it.
				fmt.Fprintln(stderr, "impressions: note: -digest describes the image's content, not the metadata-only tree just written")
			}
			opts.MetadataOnly = false
			if digest, err = imgfmt.Digest(m, opts); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", digest)
	}

	if *reportFlag != "" {
		if err := writeReportFile(*reportFlag, &report); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote reproducibility report to %s\n", *reportFlag)
	}
	return nil
}

// streamImage replays the metadata once into the sink format and out name: a
// directory tree written through the VFS, or an archive or filesystem image
// written sequentially (no per-file syscalls, no mkfs, no root). With
// wantDigest the canonical image digest is folded in the same pass and
// returned. The sink's line is printed once the image is whole.
func streamImage(m *core.Metadata, format, out string, opts imgfmt.Options, wantDigest bool, stdout io.Writer) (digest string, err error) {
	var (
		fold *fsimage.DigestBuilder
		sink interface {
			fsimage.RecordSink
			Close() error
			Written() int64
		}
		file  *os.File
		wrote = "wrote " + format + " image %[2]s (%[1]d content bytes, sequential)\n" // the sink's line, of (bytes, out)
	)
	if wantDigest {
		fold = imgfmt.FoldDigest(&opts, m.DirCount(), m.FileCount(), m.TotalBytes())
	}
	if format == "dir" {
		sink = fsimage.NewMaterializeSink(out, fsimage.MaterializeOptions{
			Registry: opts.Registry, Seed: opts.Seed, MetadataOnly: opts.MetadataOnly, Parallelism: opts.Parallelism,
		}, fold)
		wrote = "materialized %d bytes under %s\n"
	} else {
		if file, err = os.Create(out); err != nil {
			return "", err
		}
		defer file.Close()
		if format == "squashfs" {
			sink, err = imgfmt.NewSquashfsSink(file, opts)
		} else {
			sink = imgfmt.NewTarSink(file, opts)
		}
	}
	if err != nil {
		return "", err
	}
	records := fsimage.RecordSink(sink)
	if fold != nil {
		records = fsimage.MultiSink(sink, fold)
	}
	if err = m.StreamRecords(records); err == nil {
		err = sink.Close()
	}
	if err == nil && file != nil {
		err = file.Close()
	}
	if err != nil {
		return "", err
	}
	fmt.Fprintf(stdout, wrote, sink.Written(), out)
	if fold != nil {
		return fold.Sum()
	}
	return "", nil
}

// runStitch merges per-shard tar segments (written by `worker -format
// tar`, named in shard order) into the monolithic archive — byte-identical
// to a single-process `-format tar` run of the same plan. Content bytes
// are copied, never regenerated; every entry is verified against the plan
// stream.
func runStitch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions stitch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag = fs.String("plan", "", "plan file the segments were built from (required)")
		outFlag  = fs.String("out", "", "file to write the stitched tar archive to (required)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: impressions stitch -plan plan.json -out image.tar seg0.tar seg1.tar ...")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *planFlag == "" || *outFlag == "" {
		return usagef("stitch: -plan and -out are required")
	}
	segPaths := fs.Args()
	if len(segPaths) == 0 {
		return usagef("stitch: segment files (one per shard, in shard order) are required")
	}
	planF, err := os.Open(*planFlag)
	if err != nil {
		return err
	}
	defer planF.Close()
	segments := make([]io.Reader, len(segPaths))
	for i, p := range segPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		segments[i] = f
	}
	out, err := os.Create(*outFlag)
	if err != nil {
		return err
	}
	p, err := distribute.StitchPlanTar(planF, segments, out, imgfmt.Options{})
	if err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stitch: %d segments -> %s (%d dirs, %d files, %d content bytes)\n",
		len(segPaths), *outFlag, p.Dirs, p.Files, p.Bytes)
	return nil
}

// runPlan resolves the metadata pass and writes the shard plan, always by
// the generator-fused path: records go from the metadata pass straight into
// the chunk encoder, so the planner never holds the image — at 10^7+ files
// that is the difference between O(chunk) file records and gigabytes of
// retained metadata. With -partition K the plan is emitted as K independent
// fragment documents plus an index at the plan path; with -spill even the
// metadata columns live on disk, so the build runs in O(dirs) heap at any
// file count.
func runPlan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		shardsFlag    = fs.Int("shards", 4, "number of subtree shards to partition the namespace into")
		planFlag      = fs.String("plan", "", "file to write the JSON plan to (required)")
		_             = fs.Bool("stream", false, "accepted and ignored: plan always streams records from the metadata pass into the plan file without retaining the image")
		partitionFlag = fs.Int("partition", 0, "emit the plan as this many self-contained fragment documents (<plan>.frag<i>) plus a fragment index at -plan; fragments are byte-identical to slicing the monolithic plan")
		spillFlag     = fs.String("spill", "", "spill the metadata pass's per-file columns to temp files under this directory (O(dirs) live heap; identical plan bytes)")
		memFlag       = fs.Bool("mem", false, "report peak heap usage of the plan build")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}
	if *planFlag == "" {
		return usagef("plan: -plan <file> is required")
	}
	if *gen.layout != 1.0 {
		return usagef("plan: -layout is not supported in distributed runs (disk-layout simulation is a single-node feature)")
	}
	shardsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})
	cfg, err := gen.config()
	if err != nil {
		return err
	}
	cfg.SpillDir = *spillFlag
	req := distribute.PlanRequest{Config: cfg, MaxShards: *shardsFlag}
	if *partitionFlag > 0 {
		if shardsSet && *shardsFlag != *partitionFlag {
			return fmt.Errorf("plan: -shards %d conflicts with -partition %d — fragments are shard documents, the counts must agree (%w)",
				*shardsFlag, *partitionFlag, fsimage.ErrInvalidSpec)
		}
		req.MaxShards = *partitionFlag
	}
	var sampler *memSampler
	if *memFlag {
		sampler = startMemSampler()
	}
	var plan *distribute.Plan
	fragments := 0
	if *partitionFlag > 0 {
		dir, base := filepath.Split(*planFlag)
		name := func(shard int) string { return distribute.FragmentName(base, shard) }
		plan, err = distribute.PartitionPlan(context.Background(), req, func(shard int) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, name(shard)))
		})
		if err == nil {
			fragments = len(plan.Shards)
			err = writeJSONFile(*planFlag, plan.FragmentIndex(name).Encode)
		}
	} else {
		err = writeJSONFile(*planFlag, func(w io.Writer) error {
			var serr error
			plan, serr = req.Stream(context.Background(), w)
			return serr
		})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "plan: %d files, %d dirs, %d bytes across %d shards (fingerprint %s)\n",
		plan.Files, plan.Dirs, plan.Bytes, len(plan.Shards), plan.Fingerprint()[:12])
	for _, s := range plan.Shards {
		fmt.Fprintf(stdout, "  shard %d: %d dirs, %d files, %s (stream %s)\n",
			s.Index, s.Dirs, s.Files, stats.FormatBytes(float64(s.Bytes)), s.StreamKey)
	}
	if fragments > 0 {
		fmt.Fprintf(stdout, "plan: wrote %d fragments next to %s (index at %s)\n", fragments, *planFlag, *planFlag)
	}
	if sampler != nil {
		peak, retained, total := sampler.stop()
		fmt.Fprintf(stdout, "plan: peak heap %s (live %s retained after build), %s allocated in total, %d fragments\n",
			stats.FormatBytes(float64(peak)), stats.FormatBytes(float64(retained)), stats.FormatBytes(float64(total)), fragments)
	}
	return nil
}

// memSampler tracks the process's peak heap while a build runs, for the
// plan subcommand's -mem report.
type memSampler struct {
	baseline  uint64
	baseAlloc uint64
	peak      atomic.Uint64
	quit      chan struct{}
	done      chan struct{}
}

func startMemSampler() *memSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &memSampler{baseline: ms.HeapAlloc, baseAlloc: ms.TotalAlloc, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak heap above baseline, the live
// heap retained now (after a final GC), and the bytes allocated in total.
func (s *memSampler) stop() (peak, retained, total uint64) {
	close(s.quit)
	<-s.done
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak.Load() {
		s.peak.Store(ms.HeapAlloc)
	}
	peak = s.peak.Load() - min(s.peak.Load(), s.baseline)
	retained = ms.HeapAlloc - min(ms.HeapAlloc, s.baseline)
	total = ms.TotalAlloc - s.baseAlloc
	return peak, retained, total
}

// runWorker executes one shard of a plan and writes its manifest. The plan
// is decoded through the shard-pruning path: every chunk is still
// integrity-verified, but only this shard's file records are retained, so a
// worker's memory is bounded by its shard (plus the compact directory
// tree), never by the image.
func runWorker(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag     = fs.String("plan", "", "plan file produced by `impressions plan`")
		fragFlag     = fs.String("fragment", "", "self-contained fragment document (written by `plan -partition`) to execute; the fragment names its own shard")
		fromFlag     = fs.String("from", "", "URL of a shard document to fetch and execute (the daemon's /v1/plans/{fp}/shards/{i})")
		joinFlag     = fs.String("join", "", "base URL of an impressionsd to join as a fleet worker (e.g. http://127.0.0.1:7077)")
		shardFlag    = fs.Int("shard", -1, "shard index to execute (required with -plan)")
		formatFlag   = fs.String("format", "dir", "shard output: dir (materialized tree) or tar (segment file for `stitch`)")
		outFlag      = fs.String("out", "", "directory (-format dir) or segment file (-format tar) to write the shard to (required)")
		manifestFlag = fs.String("manifest", "", "file to write the shard manifest to (required with -plan/-from)")
		metadataOnly = fs.Bool("metadata-only", false, "create files with correct sizes but no content")
		jobs         = fs.Int("j", 0, "concurrent file writers within this worker; with -format tar, the workers generating and hashing file content behind the one segment writer (0 = all CPUs, 1 = one worker); output is byte-identical at any level")
		workDir      = fs.String("work", "", "directory for shard journals: the shard is written a sealed batch at a time and a re-run resumes after the last one (with -join the default is -out, otherwise no journal); keep it stable across restarts")
		batchFiles   = fs.Int("batch-files", 0, "files per sealed journal batch (0 = default)")
		idleExit     = fs.Duration("idle-exit", 0, "fleet mode: exit cleanly after this long without work (0 = run until signalled)")
		failAfter    = fs.Int("fail-after-files", 0, "fault injection: SIGKILL this process after writing N files of a shard")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	format := strings.ToLower(*formatFlag)
	if format != "dir" && format != "" && format != "tar" {
		return usagef("worker: unknown -format %q (want dir or tar)", *formatFlag)
	}
	wopts := distribute.WorkerOptions{MetadataOnly: *metadataOnly, Parallelism: *jobs, BatchFiles: *batchFiles, FailAfterFiles: *failAfter}
	if *joinFlag != "" {
		if *planFlag != "" || *fromFlag != "" || *fragFlag != "" {
			return usagef("worker: -join is exclusive with -plan/-from/-fragment")
		}
		if *outFlag == "" {
			return usagef("worker: -join requires -out")
		}
		if format == "tar" {
			return usagef("worker: -format tar is not available in fleet mode (leases materialize trees)")
		}
		return runFleetWorker(*joinFlag, *outFlag, *workDir, *idleExit, wopts, stdout)
	}
	sources := 0
	for _, set := range []bool{*planFlag != "", *fromFlag != "", *fragFlag != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return usagef("worker: exactly one of -plan, -from, or -fragment is required (or -join for fleet mode)")
	}
	if *outFlag == "" || *manifestFlag == "" {
		return usagef("worker: -out and -manifest are required")
	}
	var (
		view *distribute.ShardView
		err  error
	)
	switch {
	case *fromFlag != "":
		view, err = fetchShardView(*fromFlag)
	case *fragFlag != "":
		var f *os.File
		if f, err = os.Open(*fragFlag); err == nil {
			view, err = distribute.DecodeShardView(f)
			f.Close()
		}
	default:
		if *shardFlag < 0 {
			return usagef("worker: -plan requires -shard")
		}
		view, err = distribute.LoadPlanShard(*planFlag, *shardFlag)
	}
	if err != nil {
		return err
	}
	target := distribute.DirTarget(*outFlag)
	var seg *os.File
	if format == "tar" {
		if seg, err = os.Create(*outFlag); err != nil {
			return err
		}
		target = distribute.TarTarget(seg)
	}
	if *workDir != "" {
		wopts.JournalPath = distribute.JournalFile(*workDir, view.Plan.Fingerprint(), view.Shard)
	}
	res, err := distribute.Execute(context.Background(), view, target, wopts)
	if seg != nil {
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		dieIfInjected(err, fmt.Sprintf("worker: shard %d", view.Shard), stdout)
		return err
	}
	m := res.Manifest
	if res.ResumedFiles > 0 {
		fmt.Fprintf(stdout, "worker: shard %d resumed %d files from its journal, wrote %d more\n", m.Shard, res.ResumedFiles, res.WrittenFiles)
	}
	if err := writeJSONFile(*manifestFlag, m.Encode); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker: shard %d wrote %d dirs, %d files, %d bytes under %s (manifest %s)\n",
		m.Shard, m.Dirs, m.Files, m.Bytes, *outFlag, *manifestFlag)
	return nil
}

// fetchShardView pulls a self-contained shard document from a daemon URL —
// the re-run path a fleet run's status names for outstanding shards.
func fetchShardView(url string) (*distribute.ShardView, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("worker: fetching shard from %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return distribute.DecodeShardView(resp.Body)
}

// dieIfInjected escalates an injected -fail-after-files crash to a SIGKILL
// of this very process — no deferred cleanup, no flushes — so fault drills
// exercise the exact failure mode of a machine dying.
func dieIfInjected(err error, who string, stdout io.Writer) {
	if errors.Is(err, distribute.ErrSimulatedCrash) {
		fmt.Fprintf(stdout, "%s: injected crash — SIGKILL\n", who)
		//impressions:nondeterministic fault injection must kill this very process, pid is the point
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

// runFleetWorker joins a daemon's fleet and works shard leases until
// signalled (or idle-exit).
func runFleetWorker(base, outRoot, workDir string, idleExit time.Duration, wopts distribute.WorkerOptions, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := &serve.Client{Base: base}
	readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := c.WaitReady(readyCtx); err != nil {
		return err
	}
	st, err := c.RunFleetWorker(ctx, serve.FleetWorkerOptions{
		OutRoot:  outRoot,
		WorkDir:  workDir,
		IdleExit: idleExit,
		Worker:   wopts,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, format+"\n", a...)
		},
	})
	if err != nil {
		dieIfInjected(err, "worker "+st.WorkerID, stdout)
		return err
	}
	fmt.Fprintf(stdout, "worker %s: done (%d shards committed, %d resumed mid-shard, %d files written, %d resumed)\n",
		st.WorkerID, st.ShardsCommitted, st.ShardsResumed, st.FilesWritten, st.FilesResumed)
	return nil
}

// runFleetrun drives a whole distributed run through a daemon's scheduler:
// one POST /v1/runs, then poll until the canonical digest (or failure,
// with every outstanding shard's re-run command).
func runFleetrun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions fleetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		base    = fs.String("base", "http://127.0.0.1:7077", "base URL of the running impressionsd")
		shards  = fs.Int("shards", 0, "number of shards (0 = one per daemon CPU decision, i.e. server default)")
		timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline for the run")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}
	// What reaches the daemon is a spec, which carries neither a layout
	// simulation nor a file-size model.
	if *gen.layout != 1.0 || *gen.mu != 0 || *gen.sigma != 0 {
		return usagef("fleetrun: -layout, -size-mu and -size-sigma are not supported in fleet runs (the daemon is sent a spec, which cannot carry them)")
	}
	cfg, err := gen.config()
	if err != nil {
		return err
	}
	g, err := core.NewGenerator(cfg)
	if err != nil {
		return err
	}
	spec := g.Spec()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := &serve.Client{Base: *base}
	if err := c.WaitReady(ctx); err != nil {
		return err
	}
	st, err := c.PostRun(ctx, serve.PlanRequest{Spec: spec, Shards: *shards})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleetrun: run %s created (%d shards, fingerprint %s)\n", st.ID, st.TotalShards, st.Fingerprint)
	st, err = c.WaitRun(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleetrun: run %s %s: %d/%d shards committed, %d requeue(s), %dms\n",
		st.ID, st.State, st.Committed, st.TotalShards, st.Requeues, st.ElapsedMillis)
	if st.State != fleet.RunComplete {
		return runIncomplete(stdout, "fleetrun", st)
	}
	fmt.Fprintf(stdout, "image digest: sha256:%s\n", st.Digest)
	return nil
}

// runIncomplete reports a run that did not end in a digest: every
// outstanding shard with the command that re-runs it by hand, and the
// scheduler's reason as the error.
func runIncomplete(stdout io.Writer, who string, st fleet.RunStatus) error {
	for _, o := range st.Outstanding {
		fmt.Fprintf(stdout, "%s: shard %d outstanding after %d attempt(s); re-run by hand:\n  %s\n", who, o.Shard, o.Attempts, o.Command)
	}
	return fmt.Errorf("%s: run %s %s: %s", who, st.ID, st.State, st.Error)
}

// runMerge verifies shard manifests against the plan and emits the merged
// image, report, and canonical digest. With -partial it instead audits a
// possibly incomplete manifest set and reports exactly which shards are
// outstanding — with the worker command line to re-run each — so a failed
// distributed run can be resumed instead of restarted.
func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag    = fs.String("plan", "", "plan file produced by `impressions plan` (required unless -index)")
		indexFlag   = fs.String("index", "", "fragment index produced by `plan -partition`: verify the fragment documents + manifests and reproduce the canonical digest without ever materializing the image")
		reportFlag  = fs.String("report", "", "write the merged JSON reproducibility report to this file")
		printDigest = fs.Bool("print-digest", false, "print only the canonical image digest line")
		partialFlag = fs.Bool("partial", false, "accept an incomplete manifest set: report outstanding shards (with re-run commands) instead of failing; merges normally when the set turns out to be complete")
		outHint     = fs.String("out", "", "output root used in the re-run commands -partial prints (display only)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *indexFlag != "" {
		if *planFlag != "" || *partialFlag || *reportFlag != "" {
			return usagef("merge: -index is exclusive with -plan/-partial/-report (a fragment merge never holds the image)")
		}
		return runFragmentMerge(*indexFlag, fs.Args(), *printDigest, stdout)
	}
	if *planFlag == "" {
		return usagef("merge: -plan <file> is required")
	}
	if fs.NArg() == 0 && !*partialFlag {
		return usagef("merge: at least one shard manifest file is required (or -partial to audit an empty set)")
	}
	open, err := distribute.LoadPlan(*planFlag)
	if err != nil {
		return err
	}
	manifests := make([]*distribute.Manifest, 0, fs.NArg())
	for _, path := range fs.Args() {
		m, err := distribute.LoadManifest(path)
		if err != nil {
			if !*partialFlag || !errors.Is(err, fsimage.ErrManifestIntegrity) {
				return err
			}
			// In partial mode an unreadable manifest (truncated upload, crash
			// mid-write) is triage input, not a fatal error: its shard simply
			// stays outstanding.
			fmt.Fprintf(stderr, "impressions: merge: skipping unreadable manifest %s: %v\n", path, err)
			continue
		}
		manifests = append(manifests, m)
	}
	var res *distribute.MergeResult
	if *partialFlag {
		audit, err := distribute.AuditManifests(open, manifests)
		if err != nil {
			return err
		}
		if !audit.Complete() {
			printMergeAudit(stdout, audit, open, *planFlag, *outHint, fs.Args())
			return nil
		}
		if res, err = distribute.MergeAudited(open, audit); err != nil {
			return err
		}
	} else if res, err = distribute.Merge(open, manifests); err != nil {
		return err
	}
	if !*printDigest {
		fmt.Fprintf(stdout, "merged %s\n", res.Image.Summary())
		if _, err := res.Report.WriteTo(stdout); err != nil {
			return err
		}
	}
	if *printDigest && res.Digest == "" {
		return fmt.Errorf("merge: the manifests are metadata-only and carry no content digest")
	}
	if res.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", res.Digest)
	}
	if *reportFlag != "" {
		if err := writeReportFile(*reportFlag, &res.Report); err != nil {
			return err
		}
	}
	return nil
}

// runFragmentMerge is the partitioned pipeline's final stage: it streams
// the fragment documents named by the index against the workers' manifests
// and reproduces the canonical image digest in O(dirs + shards·chunk)
// memory — the merge node never holds the image either.
func runFragmentMerge(indexPath string, manifestPaths []string, printDigest bool, stdout io.Writer) error {
	ix, err := distribute.LoadFragmentIndex(indexPath)
	if err != nil {
		return err
	}
	if len(manifestPaths) == 0 {
		return usagef("merge: -index requires the shard manifest files as arguments")
	}
	manifests := make([]*distribute.Manifest, ix.Shards)
	for _, path := range manifestPaths {
		m, err := distribute.LoadManifest(path)
		if err != nil {
			return err
		}
		if m.Shard < 0 || m.Shard >= ix.Shards {
			return fmt.Errorf("merge: manifest %s names shard %d, index has %d shards", path, m.Shard, ix.Shards)
		}
		if manifests[m.Shard] != nil {
			return fmt.Errorf("merge: duplicate manifest for shard %d (%s) (%w)", m.Shard, path, fsimage.ErrInvalidSpec)
		}
		manifests[m.Shard] = m
	}
	for s, m := range manifests {
		if m == nil {
			return fmt.Errorf("merge: no manifest for shard %d — run its worker (impressions worker -fragment %s ...) and merge again",
				s, filepath.Join(filepath.Dir(indexPath), ix.Fragments[s]))
		}
	}
	dir := filepath.Dir(indexPath)
	res, err := distribute.MergeFragments(context.Background(), func(shard int) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, ix.Fragments[shard]))
	}, manifests)
	if err != nil {
		return err
	}
	if res.Fingerprint != ix.Fingerprint {
		return fmt.Errorf("merge: fragment fingerprint %s does not match index fingerprint %s (%w)", res.Fingerprint, ix.Fingerprint, fsimage.ErrManifestIntegrity)
	}
	if !printDigest {
		fmt.Fprintf(stdout, "merged %d dirs, %d files, %d bytes from %d fragments (fingerprint %s)\n",
			res.Dirs, res.Files, res.Bytes, ix.Shards, res.Fingerprint[:12])
	}
	if printDigest && res.Digest == "" {
		return fmt.Errorf("merge: the manifests are metadata-only and carry no content digest")
	}
	if res.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", res.Digest)
	}
	return nil
}

// printMergeAudit renders an incomplete audit as a triage report: one line
// per outstanding shard, each with the exact worker command that produces
// the missing manifest. outHint fills the -out argument when known;
// manifestPaths (the files the caller presented) anchor where the re-run's
// manifest should land, falling back to the plan's directory.
func printMergeAudit(w io.Writer, audit *distribute.Audit, open *distribute.OpenPlan, planPath, outHint string, manifestPaths []string) {
	fmt.Fprintf(w, "merge: %d of %d shards verified (plan fingerprint %s)\n",
		audit.Verified(), len(audit.Statuses), open.Plan.Fingerprint()[:12])
	if outHint == "" {
		outHint = "<out>"
	}
	// Re-run manifests belong next to the manifests the operator already
	// has (so the same glob picks them up on the next merge), not
	// necessarily next to the plan file.
	manifestDir := filepath.Dir(planPath)
	if len(manifestPaths) > 0 {
		manifestDir = filepath.Dir(manifestPaths[0])
	}
	// A metadata-only run's outstanding shards must be re-run metadata-only,
	// or the regenerated manifest will be rejected for mixing run modes.
	mode := ""
	if audit.Verified() > 0 && !audit.ContentHashed {
		mode = " -metadata-only"
	}
	for _, st := range audit.Statuses {
		if st.State == distribute.ShardVerified {
			continue
		}
		reason := st.State.String()
		if st.Err != nil {
			reason = fmt.Sprintf("%s (%v)", reason, st.Err)
		}
		fmt.Fprintf(w, "  shard %d: %s\n", st.Shard, reason)
		fmt.Fprintf(w, "    re-run: impressions worker -plan %s -shard %d -out %s -manifest %s%s\n",
			planPath, st.Shard, outHint, filepath.Join(manifestDir, fmt.Sprintf("manifest-%d.json", st.Shard)), mode)
	}
	fmt.Fprintf(w, "merge: image incomplete — run the outstanding workers, then merge again\n")
}

// workerCommand builds the process distrun runs one shard attempt in: this
// binary's worker subcommand, killed when ctx ends. It is a variable so tests
// can reroute it through the test binary's helper process.
var workerCommand = func(ctx context.Context, args []string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrun: locating executable: %w", err)
	}
	return exec.CommandContext(ctx, exe, args...), nil
}

// runDistrun orchestrates the full pipeline locally: build the plan, hand it
// to an in-process fleet.Scheduler, and run one worker OS process per leased
// shard attempt, all writing in place into the shared output root (subtree
// shards are disjoint) under the shard journal in the work directory. The
// scheduler owns retry, verification and the merge; this function owns the
// processes. It exists as a convenience and as a constantly exercised
// reference for the multi-machine recipe, where the same worker invocations
// run on different hosts.
//
// Resuming is running the same command with the same -work: every shard is
// executed again, and a shard's journal — bound to the plan, checked against
// what -out holds — decides how much of it is written again, from nothing
// (sealed to the end) to everything (another plan, another or a cleaned
// -out, the other content mode). A failed run leaves what its workers wrote
// in -out; the printed digest and exit status 0 say an image is complete,
// never the directory.
func runDistrun(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("impressions distrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		shardsFlag   = fs.Int("shards", 4, "number of shards / local worker processes")
		outFlag      = fs.String("out", "", "directory to materialize the image into (required)")
		workFlag     = fs.String("work", "", "directory for the plan, manifests and shard journals; reuse it to resume a failed run (default: a temp dir, removed once the run succeeds)")
		metadataOnly = fs.Bool("metadata-only", false, "create files with correct sizes but no content")
		reportFlag   = fs.String("report", "", "write the merged JSON reproducibility report to this file")
		retriesFlag  = fs.Int("retries", 1, "times to retry a failed or timed-out worker before giving up")
		timeoutFlag  = fs.Duration("shard-timeout", 0, "per-attempt deadline for one worker process (0 = none)")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}
	if *outFlag == "" {
		return usagef("distrun: -out <dir> is required")
	}
	if *retriesFlag < 0 {
		return usagef("distrun: -retries must be >= 0")
	}
	if *timeoutFlag < 0 {
		return usagef("distrun: -shard-timeout must be >= 0")
	}
	if *gen.layout != 1.0 {
		return usagef("distrun: -layout is not supported in distributed runs (disk-layout simulation is a single-node feature)")
	}
	cfg, err := gen.config()
	if err != nil {
		return err
	}

	workDir := *workFlag
	if workDir == "" {
		if workDir, err = os.MkdirTemp("", "impressions-distrun-*"); err != nil {
			return err
		}
		// A failed run keeps it: the re-run commands it prints name its files.
		defer func() {
			if err == nil {
				os.RemoveAll(workDir)
			}
		}()
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	plan, err := distribute.BuildPlan(context.Background(), distribute.PlanRequest{Config: cfg, MaxShards: *shardsFlag})
	if err != nil {
		return err
	}
	open, err := plan.Open()
	if err != nil {
		return err
	}
	// The plan is deterministic from the flags, so rewriting it on resume is
	// idempotent; journals a work dir holds from other flags are bound to
	// another fingerprint and prove nothing about this one.
	planPath := filepath.Join(workDir, "plan.json")
	if err := writeJSONFile(planPath, plan.Encode); err != nil {
		return err
	}
	manifestPath := func(shard int) string { return filepath.Join(workDir, fmt.Sprintf("manifest-%d.json", shard)) }
	workerArgs := func(shard int) []string {
		args := []string{"worker", "-plan", planPath, "-shard", strconv.Itoa(shard), "-out", *outFlag, "-manifest", manifestPath(shard), "-work", workDir}
		if *metadataOnly {
			args = append(args, "-metadata-only")
		}
		if *gen.jobs != 0 {
			args = append(args, "-j", strconv.Itoa(*gen.jobs))
		}
		return args
	}

	var mu sync.Mutex // serializes the scheduler's and the workers' lines
	say := func(w io.Writer, format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, format, a...)
	}
	ttl := *timeoutFlag
	if ttl == 0 {
		ttl = math.MaxInt64
	}
	sched := fleet.New(fleet.Options{
		LeaseTTL:    ttl,
		MaxAttempts: *retriesFlag + 1,
		// A failed worker is retried at once: the smallest backoff there is.
		BackoffBase: time.Nanosecond,
		BackoffMax:  time.Nanosecond,
		InlineGrace: -1,
		WorkerCommand: func(_ string, shard int) string {
			return "impressions " + strings.Join(workerArgs(shard), " ")
		},
		// Worker and lease ids are random; stdout stays what the flags decide.
		Logf: func(format string, a ...any) { say(stderr, format+"\n", a...) },
	})
	runID, err := sched.CreateRun(plan.Fingerprint(), open)
	if err != nil {
		return err
	}
	execute := func(ctx context.Context, l *fleet.Lease) (*distribute.Manifest, error) {
		cmd, err := workerCommand(ctx, workerArgs(l.Shard))
		if err != nil {
			return nil, err
		}
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		// The worker is tied to the thread that starts it, so the thread is
		// this goroutine's until the worker is gone.
		cmd.SysProcAttr = workerProcAttr
		runtime.LockOSThread()
		err = cmd.Run()
		runtime.UnlockOSThread()
		say(stdout, "%s", outBuf.String())
		if errBuf.Len() > 0 {
			say(stderr, "--- worker %d (attempt %d) stderr ---\n%s", l.Shard, l.Attempt, errBuf.String())
		}
		if err != nil {
			return nil, fmt.Errorf("worker process: %w", err)
		}
		return distribute.LoadManifest(manifestPath(l.Shard))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	say(stdout, "distrun: plan has %d shards; launching %d worker processes\n", len(plan.Shards), len(plan.Shards))
	st, report, err := fleet.RunSlots(ctx, sched, runID, workDir, execute)
	if err != nil {
		return fmt.Errorf("distrun: %w", err)
	}
	if st.State != fleet.RunComplete {
		return runIncomplete(stdout, "distrun", st)
	}
	fmt.Fprintf(stdout, "distrun: merged %s\n", open.Image.Summary())
	if st.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", st.Digest)
	}
	if *reportFlag != "" {
		return writeReportFile(*reportFlag, report)
	}
	return nil
}

func printDefaultTable(w io.Writer) {
	table := core.DefaultParameterTable()
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "Impressions default parameters (Table 2):")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %s\n", k+":", table[k])
	}
}

// writeJSONFile creates path and streams enc's output into it, surfacing
// the close error (short writes on full disks appear there).
func writeJSONFile(path string, enc func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := enc(f); err != nil {
		return err
	}
	return f.Close()
}

// writeReportFile writes the JSON reproducibility report to path.
func writeReportFile(path string, r *fsimage.Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseSize parses human-friendly sizes like "500MB", "4.55GB", "1048576".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := float64(1)
	for _, suffix := range []struct {
		text string
		mult float64
	}{
		{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1},
	} {
		if strings.HasSuffix(s, suffix.text) {
			mult = suffix.mult
			s = strings.TrimSuffix(s, suffix.text)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return int64(v * mult), nil
}
