package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"impressions/internal/core"
	"impressions/internal/stats"
)

// jobs is -j for every command except distrun's two workers (-j 1 each), so
// the threads doing work never exceed the two cores the sizing was done on.
const (
	jobs     = 2
	jobsFlag = "2"
)

// beta is the resolver's sum tolerance; a report whose sum_error exceeds it
// came from the non-converged fallback and is a failed run.
const beta = 0.05

// spec is one image request: the flags every subcommand shares, at -scale 1.
type spec struct {
	// name keys the reference digest; workloads that must print the same
	// digest share a spec.
	name  string
	files int
	dirs  int     // 0: derived by the program (files / 5)
	size  int64   // -size in bytes
	mu    float64 // lognormal body override; 0 keeps the default size model
	sigma float64
}

// small is SMALL(N): ~1.1 KB files. The -size constraint makes the resolver
// reject the Pareto tail, which otherwise adds a handful of >=512 MB files
// per 100k and turns a per-file workload into a content workload.
func small(n int) spec {
	return spec{name: fmt.Sprintf("small%dk", n/1000), files: n, dirs: n / 10,
		size: int64(1.12 * 1024 * float64(n)), mu: 6.9, sigma: 0.5}
}

var (
	// meta is unconstrained by the user: a million records of the default
	// model, never turned into content.
	meta = spec{name: "meta", files: 1_000_000}
	// bulk is the paper's Table 6 "Image1" at half scale (-size 2.2GB), with
	// 237 KB files of SMALL's shape. Under the default size model two or
	// three files hold most of the bytes (e^(sigma^2) = 424, so 10 000 files
	// weigh like 24), and MB/s measured which content generator the largest
	// one drew: 365 to 447 MB/s across six seeds.
	bulk = spec{name: "bulk", files: 10_000, dirs: 2_000, size: 22 << 30 / 10, mu: 12.25, sigma: 0.5}
	// fleetSpec is what a daemon spec can carry (no file-size model), kept
	// small because it goes through the VFS.
	fleetSpec = spec{name: "fleet", files: 3_000, dirs: 600, size: 300 << 20}
)

func (s spec) scaled(scale float64) spec {
	s.files = int(math.Round(float64(s.files) * scale))
	s.dirs = int(math.Round(float64(s.dirs) * scale))
	s.size = int64(float64(s.size) * scale)
	return s
}

// wantDirs is the directory count the program must report, root included.
func (s spec) wantDirs() int {
	if s.dirs > 0 {
		return s.dirs
	}
	return s.files / core.DefaultFilesPerDir
}

// command renders a command line of the program for this spec: the
// subcommand ("" for the single-process generator), the spec's flags, then
// rest. These flags are the compatibility surface the benchmark pins.
func (s spec) command(seed int64, sub string, rest ...string) []string {
	var a []string
	if sub != "" {
		a = append(a, sub)
	}
	a = append(a, "-files", strconv.Itoa(s.files))
	if s.dirs > 0 {
		a = append(a, "-dirs", strconv.Itoa(s.dirs))
	}
	if s.size > 0 {
		a = append(a, "-size", strconv.FormatInt(s.size, 10))
	}
	if s.mu > 0 {
		a = append(a, "-size-mu", fmtFloat(s.mu), "-size-sigma", fmtFloat(s.sigma))
	}
	return append(append(a, "-seed", strconv.FormatInt(seed, 10)), rest...)
}

// config is the same request for the in-process probes; it must stay in
// step with what cmd/impressions builds from command()'s flags.
func (s spec) config(seed int64) core.Config {
	cfg := core.Config{Seed: seed, NumFiles: s.files, NumDirs: s.dirs, FSSizeBytes: s.size, Parallelism: jobs}
	if s.mu > 0 {
		cfg.Mode = core.ModeUserSpecified
		cfg.FileSizeDist = stats.NewHybrid(stats.NewLognormal(s.mu, s.sigma),
			stats.NewPareto(core.DefaultParetoK, core.DefaultParetoXm), core.DefaultFileSizeBodyWeight)
	}
	return cfg
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// kind selects the command line, the output checks and the traced probes.
type kind int

const (
	kindPlan kind = iota
	kindTar
	kindSquashfs
	kindDir
	kindDistrun
)

type workload struct {
	Name string
	// Why is the one sentence BENCHMARK.json carries.
	Why  string
	kind kind
	spec spec
	// Side measurements the traced pass hangs on this workload because its
	// spec suits them: the tar-segment chain, the daemon, a fleet run.
	stitch, serve, fleet bool
}

var workloads = []workload{
	{Name: "plan_meta", kind: kindPlan, spec: meta,
		Why: "Metadata only: sampling, skeleton, placement, spill columns, chunk encode and the partitioned planner do all the work; content, SHA and sinks do none."},
	{Name: "tar_bulk", kind: kindTar, spec: bulk, serve: true,
		Why: "237 KB files through the tar sink: the content engine and the SHA tap dominate, framing and metadata are under 2 %."},
	{Name: "tar_small", kind: kindTar, spec: small(500_000), stitch: true,
		Why: "Same sink on 1.1 KB files: per-entry tar framing and metadata dominate, content is a third; a bulk-path win that adds per-file cost shows here."},
	{Name: "squashfs_small", kind: kindSquashfs, spec: small(500_000),
		Why: "Same records and content as tar_small through the other sink (no archive/tar, no padding, a sizing pre-pass); must print the same digest."},
	{Name: "dir_small", kind: kindDir, spec: small(300_000),
		Why: "The paper's primary use: files created through the kernel by the parallel materializer at -j 2, per-file syscalls dominate."},
	{Name: "distrun_k2", kind: kindDistrun, spec: small(300_000), fleet: true,
		Why: "plan, two worker processes and merge under the supervisor on dir_small's spec and digest, so the ratio of the two is the distribution tax."},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd is one metric a user of the program sees, per workload.
type endToEnd struct {
	Name, Unit, Better string
	// Bound is the share of the old median by which the metric may get
	// worse before -compare calls it a regression, between two invocations
	// at one seed; boundOn widens it on the workloads that go through the
	// VFS.
	Bound   float64
	boundOn map[string]float64
	// Contract is the one bound per metric BENCHMARK.json gives the driver,
	// which compares runs at -scale 0.1 over different seeds, made minutes to
	// hours apart, where both the machine and the inputs add spread: about
	// three times the widest spread ten seeds showed on any workload (with the
	// timings at the yardstick's reference speed), and at most 0.25. It is 0 for the one
	// metric BENCHMARK.json cannot carry: the contract wants metrics that are
	// never 0 and counts failures itself, in the result line's "attempted"
	// and "failed".
	Contract float64
	// Pace says how the metric follows the machine's speed, for the driver's
	// result line, which carries timings at the yardstick's reference speed
	// (yardstick.go): on a machine running s times slower a time (+1) reads s
	// times as much and a rate (-1) an s-th; 0 is a metric that does not
	// follow it, or, setup_s, one taken before the yardstick runs.
	Pace int
}

func (m endToEnd) boundFor(workload string) float64 {
	if b, ok := m.boundOn[workload]; ok {
		return b
	}
	return m.Bound
}

var vfsBound15 = map[string]float64{"dir_small": 0.15, "distrun_k2": 0.15}

var endToEndMetrics = []endToEnd{
	{"wall_s", "s", "lower", 0.10, vfsBound15, 0.25, +1},
	{"files_per_s", "files/s", "higher", 0.10, vfsBound15, 0.25, -1},
	{"mb_per_s", "MB/s", "higher", 0.10, vfsBound15, 0.25, -1},
	{"cpu_s", "s", "lower", 0.10, map[string]float64{"dir_small": 0.20, "distrun_k2": 0.20}, 0.25, +1},
	{"peak_rss_mb", "MiB", "lower", 0.10, nil, 0.20, 0},
	{"fail_ratio", "ratio", "lower", 0, nil, 0, 0},
	{"fidelity_mdcc", "mdcc", "lower", 0.10, nil, 0.10, 0},
	{"setup_s", "s", "lower", 0.25, nil, 0.25, 0},
}

func findEndToEnd(name string) (endToEnd, bool) {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return endToEnd{}, false
}

// layerMetric is one number owned by one layer, measured by the traced pass.
type layerMetric struct {
	Name, Unit, Better string
	// Moves lists the end-to-end metrics this number should move, written
	// metric@workload, decided before measuring. Informational says why a
	// metric has none.
	Moves         []string
	Informational string
}

const (
	noFleetWorkload = "no end-to-end workload runs the daemon: a fleet spec cannot carry a file-size model yet"
	noStitchRun     = "no end-to-end workload stitches segments; kept beside the tar sink it must stay byte-identical to"
	harnessOwn      = "describes the traced pass itself"
)

// sharedLayers are the layer metrics the traced pass reports on every one of
// the six workloads, each on the workload's own spec. BENCHMARK.json lists
// exactly these: the driver wants every per-layer metric it names from every
// traced run, whichever the workload, and a layer that does not run on a
// workload has no number there (not 0: fleet.requeues really is 0).
var sharedLayers = []layerMetric{
	{"stats.rng_ns_per_draw", "ns", "lower", []string{"files_per_s@plan_meta", "mb_per_s@tar_bulk"}, ""},
	{"stats.alias_ns_per_draw", "ns", "lower", []string{"files_per_s@plan_meta"}, ""},
	{"stats.filesize_ns_per_draw", "ns", "lower", []string{"files_per_s@plan_meta"}, ""},

	{"namespace.skeleton_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"namespace.dirs_per_s", "1/s", "higher", []string{"wall_s@plan_meta"}, ""},
	{"namespace.skeleton_par_speedup", "ratio", "higher", []string{"wall_s@plan_meta"}, ""},

	{"constraint.resolve_s", "s", "lower", []string{"wall_s@tar_small", "wall_s@dir_small", "wall_s@plan_meta"}, ""},
	{"constraint.oversamples", "count", "lower", []string{"wall_s@tar_small", "wall_s@dir_small"}, ""},
	{"constraint.final_beta", "ratio", "lower", []string{"wall_s@tar_small", "wall_s@dir_small"}, ""},

	{"core.metadata_s", "s", "lower", []string{"wall_s@plan_meta", "wall_s@tar_small"}, ""},
	{"core.phase_dirs_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"core.phase_sizes_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"core.phase_exts_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"core.phase_place_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"core.stream_s", "s", "lower", []string{"wall_s@tar_small"}, ""},
	{"core.live_heap_mb", "MiB", "lower", []string{"peak_rss_mb@tar_small"}, ""},

	{"fsimage.treesink_s", "s", "lower", []string{"files_per_s@tar_small"}, ""},
	{"fsimage.chunk_encode_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"fsimage.chunk_decode_s", "s", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"fsimage.chunk_bytes_per_record", "B", "lower", []string{"wall_s@plan_meta"}, ""},

	{"cli.startup_ms", "ms", "lower", []string{"wall_s@distrun_k2"}, ""},
}

// ownLayers are reported where the layer runs (README.md says where), so the
// driver's result line cannot carry them; the harness's own output, its
// result files and the budget tables do.
var ownLayers = []layerMetric{
	{"core.metadata_spill_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"core.generate_s", "s", "lower", []string{"wall_s@tar_small"}, ""},
	{"core.retain_s", "s", "lower", []string{"wall_s@tar_small", "peak_rss_mb@tar_small"}, ""},
	{"core.live_heap_spill_mb", "MiB", "lower", []string{"peak_rss_mb@plan_meta"}, ""},

	{"fsimage.digest_fold_s", "s", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"fsimage.vfs_create_s", "s", "lower", []string{"files_per_s@dir_small"}, ""},
	{"fsimage.vfs_write_s", "s", "lower", []string{"files_per_s@dir_small"}, ""},

	{"content.generate_s", "s", "lower", []string{"mb_per_s@tar_bulk", "wall_s@tar_small"}, ""},
	{"content.mb_per_s", "MB/s", "higher", []string{"mb_per_s@tar_bulk"}, ""},

	{"sha256.hash_s", "s", "lower", []string{"mb_per_s@tar_bulk"}, ""},
	{"sha256.mb_per_s", "MB/s", "higher", []string{"mb_per_s@tar_bulk"}, ""},

	{"imgfmt.tar_frame_s", "s", "lower", []string{"files_per_s@tar_small"}, ""},
	{"imgfmt.tar_us_per_entry", "us", "lower", []string{"files_per_s@tar_small"}, ""},
	{"imgfmt.tar_s", "s", "lower", []string{"wall_s@tar_small", "wall_s@tar_bulk"}, ""},
	{"imgfmt.tar_digest_s", "s", "lower", []string{"wall_s@tar_small", "wall_s@tar_bulk"}, ""},
	{"imgfmt.tar_pct_of_content", "%", "higher", []string{"mb_per_s@tar_bulk"}, ""},
	{"imgfmt.tar_bytes_per_content_byte", "ratio", "lower", []string{"wall_s@tar_small"}, ""},
	{"imgfmt.squashfs_s", "s", "lower", []string{"wall_s@squashfs_small"}, ""},
	{"imgfmt.squashfs_digest_s", "s", "lower", []string{"wall_s@squashfs_small"}, ""},
	{"imgfmt.squashfs_bytes_per_content_byte", "ratio", "lower", []string{"wall_s@squashfs_small"}, ""},
	{"imgfmt.sink_write_s", "s", "lower", []string{"mb_per_s@tar_bulk"}, ""},
	{"imgfmt.stitch_s", "s", "lower", nil, noStitchRun},

	{"distribute.plan_stream_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"distribute.plan_partition_s", "s", "lower", []string{"wall_s@plan_meta"}, ""},
	{"distribute.plan_bytes_per_file", "B", "lower", []string{"mb_per_s@plan_meta", "wall_s@distrun_k2"}, ""},
	{"distribute.plan_k2_s", "s", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"distribute.worker_dir_sum_s", "s", "lower", []string{"cpu_s@distrun_k2"}, ""},
	{"distribute.worker_dir_max_s", "s", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"distribute.worker_tar_sum_s", "s", "lower", nil, noStitchRun},
	{"distribute.shard_imbalance", "ratio", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"distribute.manifest_bytes_per_file", "B", "lower", []string{"wall_s@distrun_k2"}, ""},
	{"distribute.merge_s", "s", "lower", []string{"wall_s@distrun_k2"}, ""},

	{"cli.dry_run_s", "s", "lower", []string{"wall_s@tar_small", "wall_s@dir_small"}, ""},

	{"distrun.overhead_s", "s", "lower", []string{"wall_s@distrun_k2", "cpu_s@distrun_k2"}, ""},

	{"serve.plan_cold_s", "s", "lower", nil, noFleetWorkload},
	{"serve.plan_hit_ms", "ms", "lower", nil, noFleetWorkload},
	{"serve.shard_fetch_mb_per_s", "MB/s", "higher", nil, noFleetWorkload},

	{"fleet.run_s", "s", "lower", nil, noFleetWorkload},
	{"fleet.overhead_s", "s", "lower", nil, noFleetWorkload},
	{"fleet.requeues", "count", "lower", nil, noFleetWorkload},

	{"trace.unattributed_s", "s", "lower", nil, harnessOwn},
	{"trace.overhead_ratio", "ratio", "lower", nil, harnessOwn},
}

var layerMetrics = slices.Concat(sharedLayers, ownLayers)

func findLayerMetric(name string) (layerMetric, bool) {
	for _, m := range layerMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return layerMetric{}, false
}
