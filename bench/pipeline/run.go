package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// rep is one checked run of a workload's command.
type rep struct {
	cliRun
	files int
	// bytes is the size of what the command produced: image content for the
	// image workloads, the plan documents for plan_meta.
	bytes int64
	// identity is what must not change between runs of one spec: the image
	// digest, or the plan fingerprint.
	identity string
	// yard is what the yardstick took just before the command, or the pair
	// the command belongs to (yardstick.go).
	yard float64
}

// command renders the workload's command line. dir is a fresh private
// directory; streamed images go to /dev/null so the program is measured,
// not the disk (a 1.45 GB tar onto tmpfs varied 7.3 to 10.3 s, onto
// /dev/null 3.9 to 4.7 s).
func (e *env) command(w workload, dir string) []string {
	s := w.spec.scaled(e.scale)
	report := filepath.Join(dir, "report.json")
	switch w.kind {
	case kindPlan:
		return s.command(e.seed, "plan", "-j", jobsFlag, "-partition", "8", "-spill", dir, "-plan", filepath.Join(dir, "plan.json"))
	case kindTar:
		return s.command(e.seed, "", "-j", jobsFlag, "-format", "tar", "-out", os.DevNull, "-digest", "-report", report)
	case kindSquashfs:
		return s.command(e.seed, "", "-j", jobsFlag, "-format", "squashfs", "-out", os.DevNull, "-digest", "-report", report)
	case kindDir:
		return s.command(e.seed, "", "-j", jobsFlag, "-out", filepath.Join(dir, "out"), "-digest", "-report", report)
	default:
		return s.command(e.seed, "distrun", "-j", "1", "-shards", "2", "-out", filepath.Join(dir, "out"),
			"-work", filepath.Join(dir, "work"), "-report", report)
	}
}

// report is the part of the program's -report JSON the checks read.
type report struct {
	ActualFiles int     `json:"actual_files"`
	ActualDirs  int     `json:"actual_dirs"`
	ActualBytes int64   `json:"actual_bytes"`
	SumError    float64 `json:"sum_error"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkImage is the correctness gate of an image run: the digest of the
// setup reference, the requested counts, and a converged size resolution
// (today `-files 20000 -size 1GB` exits 0 after producing 13.4 GB).
func checkImage(s spec, stdout, reportPath, ref string) (report, string, error) {
	var r report
	digest, err := parseDigest(stdout)
	if err != nil {
		return r, "", err
	}
	if digest != ref {
		return r, digest, fmt.Errorf("digest %s differs from the reference %s of spec %s", digest, ref, s.name)
	}
	if err := readJSON(reportPath, &r); err != nil {
		return r, digest, err
	}
	if r.ActualFiles != s.files || r.ActualDirs != s.wantDirs() {
		return r, digest, fmt.Errorf("report counts %d files, %d dirs; the request was %d, %d", r.ActualFiles, r.ActualDirs, s.files, s.wantDirs())
	}
	if r.SumError > beta {
		return r, digest, fmt.Errorf("sum_error %.3f is above beta %.2f: the size resolution did not converge", r.SumError, beta)
	}
	return r, digest, nil
}

// planIndex is the fragment index `plan -partition` writes at -plan.
type planIndex struct {
	Fingerprint string   `json:"fingerprint"`
	Shards      int      `json:"shards"`
	Files       int      `json:"files"`
	Dirs        int      `json:"dirs"`
	Fragments   []string `json:"fragments"`
}

// checkPlan is plan_meta's gate: counts, every fragment present, and the
// total size of the documents (the workload's product).
func checkPlan(s spec, planPath string) (planIndex, int64, error) {
	var ix planIndex
	if err := readJSON(planPath, &ix); err != nil {
		return ix, 0, err
	}
	if ix.Files != s.files || ix.Dirs != s.wantDirs() {
		return ix, 0, fmt.Errorf("plan counts %d files, %d dirs; the request was %d, %d", ix.Files, ix.Dirs, s.files, s.wantDirs())
	}
	if ix.Shards != len(ix.Fragments) || ix.Shards == 0 {
		return ix, 0, fmt.Errorf("plan index names %d fragments for %d shards", len(ix.Fragments), ix.Shards)
	}
	total, err := fileSize(planPath)
	if err != nil {
		return ix, 0, err
	}
	for _, name := range ix.Fragments {
		n, err := fileSize(filepath.Join(filepath.Dir(planPath), name))
		if err != nil || n == 0 {
			return ix, 0, fmt.Errorf("fragment %s is missing or empty (%v)", name, err)
		}
		total += n
	}
	return ix, total, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// runWorkload runs the workload's command once, with the impressions binary
// given, in a fresh directory and checks what it produced. ref is the
// identity it must reproduce ("" on plan_meta's first run, which sets it).
func (e *env) runWorkload(impressions string, w workload, ref string) (rep, error) {
	dir := filepath.Join(e.scratch, w.Name)
	if err := os.RemoveAll(dir); err != nil {
		return rep{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	s := w.spec.scaled(e.scale)
	run, err := e.run(impressions, e.command(w, dir)...)
	r := rep{cliRun: run, files: s.files}
	if err != nil {
		return r, err
	}
	if w.kind == kindPlan {
		ix, total, err := checkPlan(s, filepath.Join(dir, "plan.json"))
		if err != nil {
			return r, err
		}
		if ref != "" && ix.Fingerprint != ref {
			return r, fmt.Errorf("plan fingerprint %s differs from the earlier run's %s", ix.Fingerprint, ref)
		}
		r.bytes, r.identity = total, ix.Fingerprint
		return r, nil
	}
	rp, digest, err := checkImage(s, run.stdout, filepath.Join(dir, "report.json"), ref)
	r.bytes, r.identity = rp.ActualBytes, digest
	return r, err
}

// tally collects one workload's runs by one build of the program: every run
// counts as attempted, a run that fails a check counts as failed and
// contributes no numbers.
type tally struct {
	attempted, failed int
	reps              []rep
}

// sides is one workload's tallies: this checkout's program first, then the
// other checkout's, which stays empty without -against.
type sides [2]tally

// sweeps drives the closed loop: one image at a time, the workloads
// interleaved round-robin so slow drift lands on all of them alike, and the
// yardstick before every timed command so that the drift has a number. The
// first sweep warms caches and is not timed; done is asked after every sweep
// whether the timed ones made so far, and the time they took, are enough. It
// returns the number of timed sweeps made.
//
// With -against every run is a pair: this checkout's program and the other
// one's back to back, taking turns to go first, so that whatever the machine
// does in those seconds it does to both. A pair one half of which fails
// contributes no numbers, which keeps the two sides' runs aligned.
func (e *env) sweeps(ws []workload, refs map[string]string, done func(timed int, spent time.Duration) bool) (map[string]*sides, int, error) {
	programs := []string{e.impressions}
	if e.against != "" {
		programs = append(programs, e.old)
	}
	tallies := map[string]*sides{}
	identity := map[string]string{} // what every run of a workload must reproduce
	for _, w := range ws {
		tallies[w.Name] = &sides{}
		identity[w.Name] = refs[w.spec.name]
	}
	var start time.Time
	timed := -1
	for ; timed < 0 || !done(timed, time.Since(start)); timed++ {
		if timed == 0 {
			start = time.Now()
		}
		for i, w := range ws {
			// The yardstick is read before every timed run, or pair of runs.
			var yard float64
			if timed >= 0 {
				var err error
				if yard, err = e.yard.run(); err != nil {
					return nil, 0, fmt.Errorf("yardstick: %w", err)
				}
			}
			var pair [2]rep
			passed := true
			for j := range programs {
				if err := e.ctx.Err(); err != nil {
					return nil, 0, err
				}
				side := (timed + 1 + i + j) % len(programs)
				t := &tallies[w.Name][side]
				r, err := e.runWorkload(programs[side], w, identity[w.Name])
				r.yard = yard
				t.attempted++
				if err != nil {
					t.failed++
					passed = false
					fmt.Fprintf(e.out, "FAILED %s (%s): %v\n", w.Name, programs[side], err)
					continue
				}
				pair[side] = r
				if identity[w.Name] == "" {
					identity[w.Name] = r.identity
				}
			}
			if passed && timed >= 0 {
				for side := range programs {
					t := &tallies[w.Name][side]
					t.reps = append(t.reps, pair[side])
				}
			}
		}
	}
	return tallies, timed, nil
}

// perRep maps each end-to-end metric taken from a single run to its value.
var perRep = map[string]func(rep) float64{
	"wall_s":      func(r rep) float64 { return r.wall },
	"files_per_s": func(r rep) float64 { return float64(r.files) / r.wall },
	"mb_per_s":    func(r rep) float64 { return float64(r.bytes) / 1e6 / r.wall },
	"cpu_s":       func(r rep) float64 { return r.cpu },
	"peak_rss_mb": func(r rep) float64 { return r.rssMiB },
}

// endToEnd reduces a workload's timed runs to its end-to-end samples.
func (t *tally) endToEnd() map[string]sample {
	out := map[string]sample{}
	for _, m := range endToEndMetrics {
		f, ok := perRep[m.Name]
		if !ok {
			continue
		}
		v := make([]float64, len(t.reps))
		for i, r := range t.reps {
			v[i] = f(r)
		}
		out[m.Name] = summarize(m.Unit, v)
	}
	out["fail_ratio"] = summarize("ratio", []float64{float64(t.failed) / float64(t.attempted)})
	return out
}

// yardstick is what the yardstick took before each of the workload's timed
// runs, in their order.
func (t *tally) yardstick() sample {
	v := make([]float64, len(t.reps))
	for i, r := range t.reps {
		v[i] = r.yard
	}
	return summarize("s", v)
}
