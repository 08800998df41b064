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
// `plan` writes a plan as one fragment per shard plus the fragment index that
// names them; `worker`, `merge` and `stitch` take the index at -plan, and the
// worker also takes one shard document, such as a fragment.
//
// Fleet mode hands the orchestration to a running impressionsd: `worker
// -join <url>` turns this process into a lease-pulling fleet worker with
// mid-shard resume, and `fleetrun` submits a whole run and polls it to the
// canonical digest.
//
// Direct image sinks skip the VFS entirely: `-format tar` or `-format
// squashfs` serializes the image straight into an archive/filesystem file,
// each chunk written at its offset (no per-file syscalls, no mkfs, no root),
// a squashfs file only where the destination can seek; `worker
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
//	impressions worker -plan plan.json.frag3 -out /mnt/img -manifest shard3.json
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
		jobs:    fs.Int("j", 0, "parallel workers for generation and materialization; with -format tar/squashfs, the workers generating, hashing and writing file content, each chunk at its place in the image; for plan, the metadata pass's workers, and the plan's chunks hashed and rendered a piece of 1024 records at a time as the records are routed: all but one worker format the pieces, the goroutine routing them formats queued ones too when the queue is full, and whichever finishes the oldest piece writes it (0 = all CPUs, 1 = one worker, which formats and writes each queued piece as it routes the next); the image and the plan are byte-identical at any level"),
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
	// Written so that NaN fails them too.
	for _, f := range []struct {
		name string
		v    float64
	}{{"-size-mu", *g.mu}, {"-size-sigma", *g.sigma}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return core.Config{}, usagef("%s %v: must be finite and not negative (0 keeps the default)", f.name, f.v)
		}
	}
	if !(*g.layout >= 0 && *g.layout <= 1) {
		return core.Config{}, usagef("-layout %v: the layout score must be in [0,1]", *g.layout)
	}
	if *g.mu > 0 || *g.sigma > 0 {
		bodyMu, bodySigma := core.DefaultFileSizeMu, core.DefaultFileSizeSigma
		if *g.mu > 0 {
			bodyMu = *g.mu
		}
		if *g.sigma > 0 {
			bodySigma = *g.sigma
		}
		cfg.FileSizeDist = userFileSizeDist(bodyMu, bodySigma)
		if mean := cfg.FileSizeDist.Mean(); math.IsInf(mean, 0) || math.IsNaN(mean) {
			return core.Config{}, usagef("-size-mu %v -size-sigma %v: the file-size body's mean, exp(mu + sigma^2/2), is not a finite number of bytes", bodyMu, bodySigma)
		}
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
	report, err := m.Report()
	if err != nil {
		return err
	}
	warnSizeMissed(stderr, m)
	fmt.Fprintln(stdout, m.Summary())
	if _, err := report.WriteTo(stdout); err != nil {
		return err
	}

	opts := fsimage.MaterializeOptions{
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

// warnSizeMissed prints one line on stderr when the files miss the size the
// flags asked for. The command goes on and exits 0: the report carries the
// sum error too.
func warnSizeMissed(stderr io.Writer, m *core.Metadata) {
	if msg := m.SizeMissed(); msg != "" {
		fmt.Fprintln(stderr, "impressions: warning:", msg)
	}
}

// streamImage replays the metadata once into the sink format and out name: a
// directory tree written through the VFS, or an archive or filesystem image
// whose workers write each chunk at its offset (no per-file syscalls, no
// mkfs, no root). With
// wantDigest the canonical image digest is folded in the same pass and
// returned. The sink's line is printed once the image is whole.
func streamImage(m *core.Metadata, format, out string, opts fsimage.MaterializeOptions, wantDigest bool, stdout io.Writer) (string, error) {
	if wantDigest {
		opts.Fold = fsimage.NewDigestFold(m.DirCount(), m.FileCount(), m.TotalBytes())
	}
	var written int64
	stream := func(sink interface {
		fsimage.RecordSink
		Close() error
		Written() int64
	}) error {
		err := m.StreamRecords(sink)
		if err == nil {
			err = sink.Close()
		}
		written = sink.Written()
		return err
	}
	wrote := "wrote " + format + " image %[2]s (%[1]d content bytes)\n" // the sink's line, of (bytes, out)
	var err error
	if format == "dir" {
		// The metadata holds the tree the records are of; the sink writes
		// under it, and folds the digest over it.
		wrote = "materialized %d bytes under %s\n"
		err = stream(fsimage.NewMaterializeSink(out, m.Tree(), opts))
	} else {
		err = createFile(out, func(f *os.File) error {
			if format != "squashfs" {
				return stream(imgfmt.NewTarSink(f, opts))
			}
			sink, err := imgfmt.NewSquashfsSink(f, opts)
			if err != nil {
				return err
			}
			return stream(sink)
		})
	}
	if err != nil {
		return "", err
	}
	fmt.Fprintf(stdout, wrote, written, out)
	if opts.Fold != nil {
		return opts.Fold.Sum()
	}
	return "", nil
}

// runStitch merges per-shard tar segments (written by `worker -format
// tar`, named in shard order) into the monolithic archive — byte-identical
// to a single-process `-format tar` run of the same plan. Content bytes are
// copied, never regenerated; every entry is verified against the plan
// stream.
func runStitch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions stitch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag = fs.String("plan", "", "plan the segments were built from (required): the fragment index `plan` writes")
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
	plan, err := distribute.OpenPlanFile(*planFlag)
	if err != nil {
		return err
	}
	segments := make([]io.Reader, len(segPaths))
	for i, p := range segPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		segments[i] = f
	}
	var p *distribute.Plan
	if err := createFile(*outFlag, func(out *os.File) (err error) {
		p, err = distribute.StitchPlanTar(plan.Source(context.Background()), segments, out, imgfmt.Options{})
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stitch: %d segments -> %s (%d dirs, %d files, %d content bytes)\n",
		len(segPaths), *outFlag, p.Dirs, p.Files, p.Bytes)
	return nil
}

// runPlan resolves the metadata pass and writes the shard plan — one
// fragment document per shard next to the plan path and the fragment index
// at it — by the generator-fused path: records go from the metadata pass
// straight into the chunk encoders, so the planner never holds the image; at
// 10^7+ files that is the difference between O(chunk) file records and
// gigabytes of retained metadata. With -spill even the metadata columns live
// on disk, so the build runs in O(dirs) heap at any file count.
func runPlan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		shardsFlag    = fs.Int("shards", 4, "number of subtree shards to partition the namespace into, one fragment document (<plan>.frag<i>) each")
		planFlag      = fs.String("plan", "", "file to write the fragment index to (required); the fragments are written next to it")
		_             = fs.Bool("stream", false, "accepted and ignored: plan always streams records from the metadata pass into the fragments without retaining the image")
		partitionFlag = fs.Int("partition", 0, "synonym of -shards (0 = use -shards)")
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
	if *shardsFlag < 1 {
		return usagef("plan: -shards %d: a plan has at least one shard", *shardsFlag)
	}
	if *partitionFlag < 0 {
		return usagef("plan: -partition %d: a plan has at least one fragment (0 takes -shards)", *partitionFlag)
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
			return fmt.Errorf("plan: -shards %d conflicts with -partition %d — -partition is a synonym of -shards, the counts must agree (%w)",
				*shardsFlag, *partitionFlag, fsimage.ErrInvalidSpec)
		}
		req.MaxShards = *partitionFlag
	}
	var sampler *memSampler
	if *memFlag {
		sampler = startMemSampler()
	}
	// An interrupted build fails like any other, and leaves nothing behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rp, err := req.Resolve(ctx)
	if err != nil {
		return err
	}
	if sampler != nil {
		sampler.sample() // the resolved columns and the pass's garbage, before the write
	}
	warnSizeMissed(stderr, rp.Meta)
	err = writePlanFiles(ctx, rp, *planFlag)
	rp.Close()
	if err != nil {
		return err
	}
	plan := rp.Plan
	fmt.Fprintf(stdout, "plan: %d files, %d dirs, %d bytes across %d shards (fingerprint %s)\n",
		plan.Files, plan.Dirs, plan.Bytes, len(plan.Shards), plan.Fingerprint()[:12])
	for _, s := range plan.Shards {
		fmt.Fprintf(stdout, "  shard %d: %d dirs, %d files, %s (stream %s)\n",
			s.Index, s.Dirs, s.Files, stats.FormatBytes(float64(s.Bytes)), s.StreamKey)
	}
	fmt.Fprintf(stdout, "plan: wrote %d fragments next to %s (index at %s)\n", len(plan.Shards), *planFlag, *planFlag)
	if sampler != nil {
		peak, retained, total := sampler.stop()
		fmt.Fprintf(stdout, "plan: peak heap %s (live %s retained after build), %s allocated in total, %d fragments\n",
			stats.FormatBytes(float64(peak)), stats.FormatBytes(float64(retained)), stats.FormatBytes(float64(total)), len(plan.Shards))
	}
	return nil
}

// writePlanFiles writes a resolved plan as its fragments, each next to path
// under distribute.FragmentName, and the fragment index at path. A failed
// write removes the files it created.
func writePlanFiles(ctx context.Context, rp *distribute.ResolvedPlan, path string) error {
	dir, base := filepath.Split(path)
	name := func(shard int) string { return distribute.FragmentName(base, shard) }
	var created []string
	err := rp.WriteFragments(ctx, func(shard int) (io.WriteCloser, error) {
		frag := filepath.Join(dir, name(shard))
		f, err := os.Create(frag)
		if err == nil {
			created = append(created, frag)
		}
		return f, err
	})
	if err == nil {
		err = writeJSONFile(path, rp.Plan.FragmentIndex(name).Encode)
	}
	if err != nil {
		for _, frag := range created {
			removeTorn(frag)
		}
	}
	return err
}

// memSampler tracks the process's peak heap while a build runs, for the
// plan subcommand's -mem report: every memSampleEvery, at whatever boundary
// its owner samples, and once more as it stops, before its last collection,
// so a build shorter than a tick still reports the heap it left behind.
type memSampler struct {
	baseline  uint64
	baseAlloc uint64
	peak      atomic.Uint64
	quit      chan struct{}
	done      chan struct{}
}

// memSampleEvery is memSampler's tick: a few milliseconds, the length of
// the shortest phase it is asked to see.
var memSampleEvery = 2 * time.Millisecond

func startMemSampler() *memSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &memSampler{baseline: ms.HeapAlloc, baseAlloc: ms.TotalAlloc, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample reads the heap and raises the peak to it.
func (s *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		peak := s.peak.Load()
		if ms.HeapAlloc <= peak || s.peak.CompareAndSwap(peak, ms.HeapAlloc) {
			return
		}
	}
}

// stop ends sampling and returns the peak heap above baseline, the live
// heap retained now (after a final GC), and the bytes allocated in total.
func (s *memSampler) stop() (peak, retained, total uint64) {
	close(s.quit)
	<-s.done
	s.sample()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak = max(s.peak.Load(), ms.HeapAlloc)
	peak -= min(peak, s.baseline)
	retained = ms.HeapAlloc - min(ms.HeapAlloc, s.baseline)
	total = ms.TotalAlloc - s.baseAlloc
	return peak, retained, total
}

// runWorker executes one shard of a plan and writes its manifest. It decodes
// only the shard's fragment: every chunk is integrity-verified, and only
// this shard's file records are read, so a worker's memory is bounded by its
// shard (plus the compact directory tree), never by the image.
func runWorker(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag     = fs.String("plan", "", "plan to execute a shard of: the fragment index `plan` writes (the shard's fragment is read), or one shard document such as a fragment, which names its own shard")
		fromFlag     = fs.String("from", "", "URL of a shard document to fetch and execute (the daemon's /v1/plans/{fp}/shards/{i})")
		joinFlag     = fs.String("join", "", "base URL of an impressionsd to join as a fleet worker (e.g. http://127.0.0.1:7077)")
		shardFlag    = fs.Int("shard", -1, "shard index to execute (required with an index; with a shard document it must name the shard the document carries)")
		formatFlag   = fs.String("format", "dir", "shard output: dir (materialized tree) or tar (segment file for `stitch`)")
		outFlag      = fs.String("out", "", "directory (-format dir) or segment file (-format tar) to write the shard to (required)")
		manifestFlag = fs.String("manifest", "", "file to write the shard manifest to (required with -plan/-from)")
		metadataOnly = fs.Bool("metadata-only", false, "create files with correct sizes but no content")
		jobs         = fs.Int("j", 0, "concurrent file writers within this worker; with -format tar, the workers generating and hashing file content behind the one segment writer (0 = all CPUs, 1 = one worker); output is byte-identical at any level")
		workDir      = fs.String("work", "", "directory for shard journals: the shard is written a sealed batch at a time and a re-run resumes after the last one (with -join the default is -out, otherwise no journal); keep it stable across restarts")
		idleExit     = fs.Duration("idle-exit", 0, "fleet mode: exit cleanly after this long without work (0 = run until signalled)")
		failAfter    = fs.Int("fail-after-files", 0, "fault injection: SIGKILL this process after writing N files of a shard")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}
	format := strings.ToLower(*formatFlag)
	if format != "dir" && format != "" && format != "tar" {
		return usagef("worker: unknown -format %q (want dir or tar)", *formatFlag)
	}
	if *jobs < 0 {
		return usagef("worker: -j %d: the worker count cannot be negative (0 = all CPUs)", *jobs)
	}
	wopts := distribute.WorkerOptions{MetadataOnly: *metadataOnly, Parallelism: *jobs, FailAfterFiles: *failAfter}
	if *joinFlag != "" {
		if *planFlag != "" || *fromFlag != "" {
			return usagef("worker: -join is exclusive with -plan/-from")
		}
		if *outFlag == "" {
			return usagef("worker: -join requires -out")
		}
		if format == "tar" {
			return usagef("worker: -format tar is not available in fleet mode (leases materialize trees)")
		}
		return runFleetWorker(*joinFlag, *outFlag, *workDir, *idleExit, wopts, stdout)
	}
	if (*planFlag == "") == (*fromFlag == "") {
		return usagef("worker: exactly one of -plan or -from is required (or -join for fleet mode)")
	}
	if *outFlag == "" || *manifestFlag == "" {
		return usagef("worker: -out and -manifest are required")
	}
	if format == "tar" && (*workDir != "" || *failAfter > 0) {
		return usagef("worker: -work and -fail-after-files need -format dir (a tar segment has no journal)")
	}
	view, err := workerView(*planFlag, *fromFlag, *shardFlag)
	if errors.Is(err, fsimage.ErrInvalidSpec) {
		// No shard of an index, one it does not have, or another one than
		// the shard document's: the flags ask for what the plan cannot give.
		return usageError{err}
	}
	if err != nil {
		return err
	}
	if *workDir != "" {
		wopts.JournalPath = distribute.JournalFile(*workDir, view.Plan.Fingerprint(), view.Shard)
	}
	var res *distribute.ShardResult
	execute := func(target distribute.Target) (err error) {
		res, err = distribute.Execute(context.Background(), view, target, wopts)
		return err
	}
	if format == "tar" {
		err = createFile(*outFlag, func(seg *os.File) error { return execute(distribute.TarTarget(seg)) })
	} else {
		err = execute(distribute.DirTarget(*outFlag))
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

// workerView reads the shard a worker executes: from the plan at planPath,
// whatever its shape, or from the daemon's shard document at url, fetched
// with the client's retry of a daemon that is restarting or draining. shard
// is -1 or the shard to execute; a shard document must carry it.
func workerView(planPath, url string, shard int) (*distribute.ShardView, error) {
	if planPath != "" {
		pf, err := distribute.OpenPlanFile(planPath)
		if err != nil {
			return nil, err
		}
		return pf.View(shard)
	}
	base, rest, _ := strings.Cut(url, "/v1/plans/")
	fp, index, _ := strings.Cut(rest, "/shards/")
	served, err := strconv.Atoi(index)
	if err != nil {
		return nil, usagef("worker: -from %q is not a daemon's shard URL (<base>/v1/plans/<fingerprint>/shards/<i>)", url)
	}
	view, err := (&serve.Client{Base: base}).PullShard(context.Background(), fp, served)
	if err == nil && shard >= 0 && view.Shard != shard {
		err = fmt.Errorf("worker: %s is the document of shard %d, not of shard %d (%w)", url, view.Shard, shard, fsimage.ErrInvalidSpec)
	}
	return view, err
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
		shards  = fs.Int("shards", 0, "number of shards (0 = the daemon's default, one shard)")
		timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline for the run")
	)
	if err := parseAllFlags(fs, args); err != nil {
		return err
	}
	if *shards < 0 {
		return usagef("fleetrun: -shards %d: a run has at least one shard (0 = the daemon's default)", *shards)
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
// distributed run can be resumed instead of restarted. The plan is a
// fragment index; its fragments are read.
func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag    = fs.String("plan", "", "plan the manifests were produced from (required): the fragment index `plan` writes (its fragments are read)")
		reportFlag  = fs.String("report", "", "write the merged JSON reproducibility report to this file")
		printDigest = fs.Bool("print-digest", false, "print only the canonical image digest line")
		partialFlag = fs.Bool("partial", false, "accept an incomplete manifest set: report outstanding shards (with re-run commands) instead of failing; merges normally when the set turns out to be complete")
		outHint     = fs.String("out", "", "output root used in the re-run commands -partial prints (display only)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *planFlag == "" {
		return usagef("merge: -plan <file> is required")
	}
	if fs.NArg() == 0 && !*partialFlag {
		return usagef("merge: at least one shard manifest file is required (or -partial to audit an empty set)")
	}
	plan, err := distribute.OpenPlanFile(*planFlag)
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
	res, err := distribute.Merge(plan.Source(context.Background()), manifests)
	if err != nil {
		return err
	}
	if !res.Complete() {
		if !*partialFlag {
			return res.Err()
		}
		printMergeAudit(stdout, res, *planFlag, *outHint, fs.Args())
		return nil
	}
	if !*printDigest {
		fmt.Fprintf(stdout, "merged %s\n", res.Summary())
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

// printMergeAudit renders an incomplete merge as a triage report: one line
// per outstanding shard, each with the exact worker command that produces
// the missing manifest. outHint fills the -out argument when known;
// manifestPaths (the files the caller presented) anchor where the re-run's
// manifest should land, falling back to the plan's directory.
func printMergeAudit(w io.Writer, audit *distribute.MergeResult, planPath, outHint string, manifestPaths []string) {
	fmt.Fprintf(w, "merge: %d of %d shards verified (plan fingerprint %s)\n",
		audit.Verified(), len(audit.Statuses), audit.Plan.Fingerprint()[:12])
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
	if *shardsFlag < 1 {
		return usagef("distrun: -shards %d: a run has at least one shard", *shardsFlag)
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

	// The metadata is resolved once: the fragments are written from its
	// columns, and the scheduler replays them to verify and merge.
	resolved, err := distribute.PlanRequest{Config: cfg, MaxShards: *shardsFlag}.Resolve(context.Background())
	if err != nil {
		return err
	}
	defer resolved.Close()
	warnSizeMissed(stderr, resolved.Meta)
	plan := resolved.Plan
	// The plan is deterministic from the flags, so rewriting it on resume is
	// idempotent; journals a work dir holds from other flags are bound to
	// another fingerprint and prove nothing about this one.
	planPath := filepath.Join(workDir, "plan.json")
	if err := writePlanFiles(context.Background(), resolved, planPath); err != nil {
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
	runID, err := sched.CreateRun(plan.Fingerprint(), resolved.Source())
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
	fmt.Fprintf(stdout, "distrun: merged %s\n", resolved.Meta.Summary())
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

// writeJSONFile creates path and streams enc's output into it (createFile).
func writeJSONFile(path string, enc func(io.Writer) error) error {
	return createFile(path, func(f *os.File) error { return enc(f) })
}

// createFile creates path, has write fill it and closes it, surfacing the
// close error (short writes on full disks appear there). A failed write
// leaves no torn file at path (see removeTorn).
func createFile(path string, write func(*os.File) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			removeTorn(path)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	return f.Close()
}

// removeTorn removes the file a failed write left at path: a regular file,
// which the write created or truncated. Anything else — a device such as
// /dev/null, a pipe, a symbolic link — is not the command's to remove.
func removeTorn(path string) {
	if fi, err := os.Lstat(path); err == nil && fi.Mode().IsRegular() {
		os.Remove(path)
	}
}

// writeReportFile writes the JSON reproducibility report to path.
func writeReportFile(path string, r *fsimage.Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseSize parses human-friendly sizes like "500MB", "4.55GB", "1048576":
// a finite number that comes to at least one byte and less than 2^63 bytes.
func parseSize(in string) (int64, error) {
	s := strings.TrimSpace(strings.ToUpper(in))
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
		return 0, fmt.Errorf("invalid size %q", in)
	}
	switch bytes := v * mult; {
	case math.IsNaN(bytes) || math.IsInf(bytes, 0):
		return 0, fmt.Errorf("invalid size %q: not a finite number", in)
	case bytes < 1:
		return 0, fmt.Errorf("invalid size %q: less than one byte", in)
	case bytes >= 1<<63:
		return 0, fmt.Errorf("invalid size %q: 2^63 bytes or more", in)
	default:
		return int64(bytes), nil
	}
}
