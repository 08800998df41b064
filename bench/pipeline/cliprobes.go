package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
)

// Everything in distribute, serve, fleet and the VFS materializer is timed
// from here, through subcommands and HTTP, never by import: those packages
// are what the planner, executor and supervisor collapses will rewrite.

// cmd runs one command of the program as a span and counts it. The command
// must be repeatable: anything it writes is removed by reset first.
func (p *tracedPass) cmd(name string, count int64, unit string, reset func(), args ...string) (*span, error) {
	return p.best(func() (*span, error) {
		if reset != nil {
			reset()
		}
		p.attempted++
		r, err := p.e.cli(args...)
		if err != nil {
			p.failed++
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return p.t.fromRun(p.w.Name, name, r, count, unit), nil
	})
}

// startup is the cost of a process that does nothing.
func (p *tracedPass) startup() (*span, error) {
	s, err := p.cmd("cli.startup", 1, "runs", nil, "-print-defaults")
	if err == nil {
		p.set("cli.startup_ms", s.seconds()*1e3)
	}
	return s, err
}

// dryRun is the single-process command with no output and no digest:
// start-up, generation, and the printed report.
func (p *tracedPass) dryRun() (*span, error) {
	s, err := p.cmd("cli.dry_run", int64(p.s.files), "files", nil, p.s.command(p.e.seed, "", "-j", jobsFlag)...)
	if err == nil {
		p.set("cli.dry_run_s", s.seconds())
	}
	return s, err
}

// traceDir opens up the directory run by differences of commands: a tree of
// empty files costs the dry run plus the creates; the full run adds content,
// hashing and the writes. The three add up to the root by construction.
func (p *tracedPass) traceDir(startup *span) error {
	dry, err := p.dry(startup)
	if err != nil {
		return err
	}
	tree := filepath.Join(p.dir, "empty")
	empty, err := p.cmd("cli.metadata_only", int64(p.s.files), "files", func() { os.RemoveAll(tree) },
		p.s.command(p.e.seed, "", "-j", jobsFlag, "-metadata-only", "-out", tree)...)
	if err != nil {
		return err
	}
	if _, err := p.digestFold(nil); err != nil {
		return err
	}
	create := p.derived(empty, "fsimage.vfs_create", p.minus("cli.metadata_only - cli.dry_run", empty.seconds(), dry.seconds()), int64(p.s.files), "files")
	write := p.derived(p.root, "fsimage.vfs_write", p.minus(p.w.Name+" - cli.metadata_only", p.root.seconds(), empty.seconds()), p.bytes, "B")
	nest(p.root, dry, create, write)
	p.set("fsimage.vfs_create_s", create.seconds())
	p.set("fsimage.vfs_write_s", write.seconds())
	return nil
}

// shardChain is plan -> one worker per shard, one at a time -> (for
// directories) merge, run by hand. Each worker has the machine to itself, so
// their sum is the work and their maximum the critical path.
type shardChain struct {
	planPath   string
	planRun    cliRun
	workerRuns []cliRun
	outputs    []string // what each worker wrote: the shared tree, or its segment
	manifests  []string
	mergeRun   cliRun
	digest     string // merge's, for directories
}

func (e *env) shardChain(dir string, s spec, shards int, format string) (shardChain, error) {
	c := shardChain{planPath: filepath.Join(dir, "plan.json")}
	if err := os.RemoveAll(dir); err != nil {
		return c, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	var err error
	if c.planRun, err = e.cli(s.command(e.seed, "plan", "-j", "1", "-shards", strconv.Itoa(shards), "-plan", c.planPath)...); err != nil {
		return c, err
	}
	for i := 0; i < shards; i++ {
		out, manifest := filepath.Join(dir, "out"), filepath.Join(dir, fmt.Sprintf("manifest-%d.json", i))
		if format == "tar" {
			out = filepath.Join(dir, fmt.Sprintf("segment-%d.tar", i))
		}
		w, err := e.cli("worker", "-plan", c.planPath, "-shard", strconv.Itoa(i), "-format", format, "-out", out, "-manifest", manifest, "-j", "1")
		if err != nil {
			return c, err
		}
		c.workerRuns, c.outputs, c.manifests = append(c.workerRuns, w), append(c.outputs, out), append(c.manifests, manifest)
	}
	if format == "tar" {
		return c, nil
	}
	if c.mergeRun, err = e.cli(append([]string{"merge", "-plan", c.planPath}, c.manifests...)...); err != nil {
		return c, err
	}
	c.digest, err = parseDigest(c.mergeRun.stdout)
	return c, err
}

// chainSpans runs a shard chain as spans of this pass and checks the merged
// digest against the single-process one.
type chainSpans struct {
	shardChain
	plan, merge *span
	workers     []*span
}

func (p *tracedPass) shardChain(prefix string, s spec, shards int, format string) (chainSpans, error) {
	var cs chainSpans
	spans, err := p.bestOf(func() ([]*span, error) {
		p.attempted++
		c, err := p.e.shardChain(filepath.Join(p.dir, prefix+"_"+format), s, shards, format)
		if err == nil && format == "dir" {
			var want string
			if want, err = p.reference(s); err == nil && c.digest != want {
				err = fmt.Errorf("merged digest %s differs from the single-process %s", c.digest, want)
			}
		}
		if err != nil {
			p.failed++
			return nil, fmt.Errorf("%s %s chain: %w", prefix, format, err)
		}
		cs.shardChain = c
		step := func(name string, r cliRun, count int64, unit string) *span {
			return p.t.fromRun(p.w.Name, prefix+"."+name, r, count, unit)
		}
		steps := []*span{step("plan", c.planRun, int64(s.files), "files")}
		for _, w := range c.workerRuns {
			steps = append(steps, step("worker_"+format, w, 1, "shards"))
		}
		if format == "dir" {
			steps = append(steps, step("merge", c.mergeRun, int64(s.files), "files"))
		}
		return steps, nil
	})
	if err != nil {
		return cs, err
	}
	cs.plan, cs.workers = spans[0], spans[1:1+shards]
	if format == "dir" {
		cs.merge = spans[1+shards]
	}
	return cs, nil
}

// reference is the single-process digest of a spec: the setup reference for
// the workload's own spec, a dry run (made once) otherwise.
func (p *tracedPass) reference(s spec) (string, error) {
	if ref, ok := p.refs[s.name]; ok {
		return ref, nil
	}
	ref, err := p.e.digestOf(s)
	if err == nil {
		p.refs[s.name] = ref
	}
	return ref, err
}

func sumSizes(paths []string) (int64, error) {
	var total int64
	for _, path := range paths {
		n, err := fileSize(path)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func slowest(spans []*span) (worst *span, sum float64) {
	for _, s := range spans {
		sum += s.seconds()
		if worst == nil || s.seconds() > worst.seconds() {
			worst = s
		}
	}
	return worst, sum
}

// traceDistrun opens up the supervisor's run with its own steps run by hand.
// What is left of the root after the plan, the slower worker and the merge is
// what supervising costs: staging, promotion, process starts, the retained
// plan.
func (p *tracedPass) traceDistrun() error {
	c, err := p.shardChain("distribute", p.s, 2, "dir")
	if err != nil {
		return err
	}
	if _, err := p.digestFold(nil); err != nil {
		return err
	}
	planBytes, err := fileSize(c.planPath)
	if err != nil {
		return err
	}
	manifestBytes, err := sumSizes(c.manifests)
	if err != nil {
		return err
	}
	// Only the slower worker is on the critical path, and which one that is
	// can change from round to round.
	for _, w := range c.workers {
		w.Parent = 0
	}
	worst, sum := slowest(c.workers)
	nest(p.root, c.plan, worst, c.merge)
	p.set("distribute.plan_k2_s", c.plan.seconds())
	p.set("distribute.plan_bytes_per_file", float64(planBytes)/float64(p.s.files))
	p.set("distribute.worker_dir_sum_s", sum)
	p.set("distribute.worker_dir_max_s", worst.seconds())
	p.set("distribute.shard_imbalance", worst.seconds()/(sum/float64(len(c.workers))))
	p.set("distribute.manifest_bytes_per_file", float64(manifestBytes)/float64(p.s.files))
	p.set("distribute.merge_s", c.merge.seconds())
	p.set("distrun.overhead_s", p.t.self(p.root))
	return nil
}

// tracePlan is plan_meta's budget: the spilled metadata pass and the chunk
// encode; the rest of the root is the partitioner's own work and the writes.
func (p *tracedPass) tracePlan(startup *span, product int64) error {
	stream, err := p.cmd("distribute.plan_stream", int64(p.s.files), "files", nil,
		p.s.command(p.e.seed, "plan", "-j", jobsFlag, "-stream", "-plan", filepath.Join(p.dir, "stream.json"))...)
	if err != nil {
		return err
	}
	nest(p.root, startup, p.metadata, p.encode)
	nest(p.encode, p.stream)
	p.set("distribute.plan_stream_s", stream.seconds())
	p.set("distribute.plan_partition_s", p.root.seconds())
	p.set("distribute.plan_bytes_per_file", float64(product)/float64(p.s.files))
	return nil
}

// traceStitch is the distributed way to the same tar: two segment workers
// and the stitch, whose output must be the monolithic archive.
func (p *tracedPass) traceStitch() error {
	c, err := p.shardChain("distribute", p.s, 2, "tar")
	if err != nil {
		return err
	}
	stitch, err := p.cmd("imgfmt.stitch", int64(p.s.files), "files", nil,
		append([]string{"stitch", "-plan", c.planPath, "-out", os.DevNull}, c.outputs...)...)
	if err != nil {
		return err
	}
	_, sum := slowest(c.workers)
	p.set("distribute.worker_tar_sum_s", sum)
	p.set("imgfmt.stitch_s", stitch.seconds())
	return nil
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// daemon is a spawned impressionsd on a free localhost port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed when its standard output has ended
}

func (e *env) startDaemon() (*daemon, error) {
	cmd := exec.CommandContext(e.ctx, e.impressionsd, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	lines := bufio.NewScanner(stdout)
	for d.base == "" && lines.Scan() {
		if m := listening.FindStringSubmatch(lines.Text()); m != nil {
			d.base = "http://" + m[1]
		}
	}
	go func() {
		defer close(d.drained)
		io.Copy(io.Discard, stdout)
	}()
	if d.base == "" {
		d.stop()
		return nil, errors.New("impressionsd exited before it printed its listen address")
	}
	return d, nil
}

// stop ends the daemon and returns once it has exited. Wait closes the
// pipe, so the reader has to finish first.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.drained
	d.cmd.Wait()
}

// traceServe times the daemon's plan cache over one connection: a cold
// build, a cache hit, and one shard document, from a fresh daemon every
// repetition.
func (p *tracedPass) traceServe() error {
	body, err := json.Marshal(map[string]any{"shards": 2, "spec": map[string]any{
		"seed": p.e.seed, "num_files": p.s.files, "num_dirs": p.s.dirs, "fs_size_bytes": p.s.size}})
	if err != nil {
		return err
	}
	spans, err := p.bestOf(func() ([]*span, error) {
		d, err := p.e.startDaemon()
		if err != nil {
			return nil, err
		}
		defer d.stop()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		fetch := func(name, method, url, wantCache string) (*span, string, error) {
			var fingerprint string
			p.attempted++
			s, err := p.t.measure(p.w.Name, name, func(s *span) error {
				req, err := http.NewRequestWithContext(p.e.ctx, method, url, bytes.NewReader(body))
				if err != nil {
					return err
				}
				resp, err := client.Do(req)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				n, err := io.Copy(io.Discard, resp.Body)
				s.did(n, "B")
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s %s: %s", method, url, resp.Status)
				}
				if got := resp.Header.Get("X-Impressions-Cache"); err == nil && wantCache != "" && got != wantCache {
					err = fmt.Errorf("%s %s: cache says %q, want %q", method, url, got, wantCache)
				}
				fingerprint = resp.Header.Get("X-Impressions-Plan-Fingerprint")
				return err
			})
			if err != nil {
				p.failed++
			}
			return s, fingerprint, err
		}
		cold, fingerprint, err := fetch("serve.plan_cold", http.MethodPost, d.base+"/v1/plans", "miss")
		if err != nil {
			return nil, err
		}
		hit, _, err := fetch("serve.plan_hit", http.MethodPost, d.base+"/v1/plans", "hit")
		if err != nil {
			return nil, err
		}
		shard, _, err := fetch("serve.shard_fetch", http.MethodGet, d.base+"/v1/plans/"+fingerprint+"/shards/0", "")
		return []*span{cold, hit, shard}, err
	})
	if err != nil {
		return err
	}
	cold, hit, shard := spans[0], spans[1], spans[2]
	p.set("serve.plan_cold_s", cold.seconds())
	p.set("serve.plan_hit_ms", hit.seconds()*1e3)
	p.set("serve.shard_fetch_mb_per_s", mbPerS(shard.Count, shard.seconds()))
	return nil
}

var requeues = regexp.MustCompile(`(\d+) requeue\(s\)`)

// fleetRun runs one image through a fresh daemon's scheduler with two joined
// workers, checks its digest, and returns the run with its requeue count.
func (p *tracedPass) fleetRun(s spec, shards int) (*span, error) {
	d, err := p.e.startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	dir := filepath.Join(p.dir, "fleet_run")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()
	for i := 0; i < 2; i++ {
		work := filepath.Join(dir, fmt.Sprintf("work%d", i))
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
		w := exec.CommandContext(p.e.ctx, p.e.impressions, "worker", "-join", d.base, "-out", filepath.Join(dir, "out"), "-work", work)
		if err := w.Start(); err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	want, err := p.reference(s)
	if err != nil {
		return nil, err
	}
	p.attempted++
	r, err := p.e.cli(s.command(p.e.seed, "fleetrun", "-base", d.base, "-shards", strconv.Itoa(shards))...)
	if err == nil {
		var got string
		if got, err = parseDigest(r.stdout); err == nil && got != want {
			err = fmt.Errorf("digest %s differs from the reference %s", got, want)
		}
	}
	m := requeues.FindStringSubmatch(r.stdout)
	if err == nil && m == nil {
		err = errors.New("no requeue count in fleetrun's output")
	}
	if err != nil {
		p.failed++
		return nil, fmt.Errorf("fleet.run: %w", err)
	}
	run := p.t.fromRun(p.w.Name, "fleet.run", r, int64(s.files), "files")
	run.aux, _ = strconv.Atoi(m[1])
	return run, nil
}

// traceFleet runs the fleet, then the same spec by hand, so the difference is
// what leasing, heartbeats, HTTP and journaling cost.
func (p *tracedPass) traceFleet() error {
	const shards = 8
	s := fleetSpec.scaled(p.e.scale)
	run, err := p.best(func() (*span, error) { return p.fleetRun(s, shards) })
	if err != nil {
		return err
	}
	c, err := p.shardChain("fleet", s, shards, "dir")
	if err != nil {
		return err
	}
	_, sum := slowest(c.workers)
	p.set("fleet.run_s", run.seconds())
	p.set("fleet.overhead_s", run.seconds()-c.plan.seconds()-sum/2-c.merge.seconds())
	p.set("fleet.requeues", float64(run.aux.(int)))
	return nil
}

// budgetTolerance is the share of the command's wall-clock the spans under
// the root of an archive workload may miss it by, either way, before its
// budget counts as not closed.
const budgetTolerance = 0.15

// trace runs the traced pass of one workload and prints its layer budget.
func (e *env) trace(t *tracer, w workload, ref string) (*tracedPass, error) {
	p := &tracedPass{e: e, t: t, w: w, s: w.spec.scaled(e.scale), dir: filepath.Join(e.scratch, "trace_"+w.Name),
		metrics: map[string]float64{}}
	p.refs = map[string]string{p.s.name: ref}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return p, err
	}
	defer os.RemoveAll(p.dir)
	for i := 0; i < traceReps; i++ {
		err := p.round()
		if p.meta != nil {
			p.meta.Close()
		}
		if err != nil {
			return p, err
		}
	}
	p.budget = t.budget(p.root)
	printBudget(e.out, w.Name, p.budget, p.open)
	return p, nil
}

// round measures everything once; see traceReps. What it computes from the
// spans (nesting, metrics, the reasons the budget is open) it computes anew
// from what is kept so far, so the last round leaves the pass's result.
func (p *tracedPass) round() (err error) {
	p.seq, p.open = 0, nil
	// The root is the workload's own command, checked as a timed run is.
	var product int64
	if p.root, err = p.best(func() (*span, error) {
		p.attempted++
		r, err := p.e.runWorkload(p.e.impressions, p.w, p.refs[p.s.name])
		if err != nil {
			p.failed++
			return nil, err
		}
		product = r.bytes
		return p.t.fromRun(p.w.Name, p.w.Name, r.cliRun, int64(r.files), "files"), nil
	}); err != nil {
		return err
	}
	startup, err := p.startup()
	if err != nil {
		return err
	}
	if err := p.common(); err != nil {
		return err
	}
	switch p.w.kind {
	case kindPlan:
		err = p.tracePlan(startup, product)
	case kindTar, kindSquashfs:
		err = p.traceArchive(startup)
	case kindDir:
		err = p.traceDir(startup)
	case kindDistrun:
		if _, err = p.dryRun(); err == nil {
			err = p.traceDistrun()
		}
	}
	if err == nil && p.w.stitch {
		err = p.traceStitch()
	}
	if err == nil && p.w.serve {
		err = p.traceServe()
	}
	if err == nil && p.w.fleet {
		err = p.traceFleet()
	}
	if err != nil {
		return err
	}
	// The directory run's budget is made of differences that add up to the
	// root by construction, so there is nothing unattributed to report.
	if k := p.w.kind; k != kindDir {
		left := p.t.self(p.root)
		p.set("trace.unattributed_s", left)
		if share := left / p.root.seconds(); (k == kindTar || k == kindSquashfs) && math.Abs(share) > budgetTolerance {
			p.open = append(p.open, fmt.Sprintf("the spans under the root miss its %.3f s by %+.3f s (%+.0f %%), more than %.0f %%",
				p.root.seconds(), left, 100*share, 100*budgetTolerance))
		}
	}
	return nil
}
