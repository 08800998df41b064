// Command pipeline is the one-image benchmark: it builds cmd/impressions and
// cmd/impressionsd from the checkout, drives them as a closed loop of one
// image at a time, checks every output, and prints every metric by name with
// its unit. README.md beside this file says what each workload and metric is
// for; BENCHMARK.json at the repo root is rendered from the same catalogue
// (see TestBenchmarkJSON).
//
// It is a module of its own (the driver's contract wants the benchmark to
// carry its build file) whose path lies under the impressions module's, which
// is what lets it import impressions/internal/...; run it from this
// directory, or from the repo root with go run -C bench/pipeline:
//
//	go run . -seed S [-reps 5] [-scale 1] [-workload W] [-trace trace.json] [-out result.json]
//	go run . -against /tmp/parent [-reps 10]                   (old and new in turns, judged in pairs)
//	go run . -compare old.json new.json
//	go run -C bench/pipeline . -scale 0.1 --workload W --seed S --seconds N --trace 0|1   (as the driver runs it)
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
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitRegressed is the exit code of a comparison that found a regression;
// 1 is a run that could not be made or failed its checks, 2 a bad flag.
const exitRegressed = 3

// minReps is the default of -reps, and the least number of timed runs a
// reported median may stand on; only the smoke test asks for fewer.
const minReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 20090225, "seed every spec is generated with")
		reps      = fs.Int("reps", minReps, "timed sweeps over the selected workloads, after one warm-up sweep")
		seconds   = fs.Int("seconds", 0, "keep making timed sweeps until they have taken this long, too")
		scale     = fs.Float64("scale", 1, "scales every workload's files, directories and bytes together")
		name      = fs.String("workload", "", "run only this workload (default: all six), and print the driver's result object last")
		traceFlag = fs.String("trace", "0", "traced pass after the timed sweeps: 0 off, 1 into "+buildDir+"/trace.json, or the file to write the Chrome trace to")
		outPath   = fs.String("out", "", "append this invocation's result to this JSON file")
		compare   = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		against   = fs.String("against", "", "another checkout of this module: build its cmd/impressions too, run the two in turns, and judge this one against it in pairs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pipeline:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files: old.json new.json"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return exitRegressed
		}
		return 0
	}

	ws := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		ws = []workload{w}
	}
	if *scale <= 0 || meta.scaled(*scale).files < 1000 {
		return fail(fmt.Errorf("-scale %g leaves too little to measure (the least is 0.001)", *scale))
	}
	if *reps < 1 {
		return fail(fmt.Errorf("-reps %d: at least one timed sweep is needed", *reps))
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	// A signal cancels the context, which kills the running command's
	// process group (see env.run); the deferred clean-up below then still
	// removes the scratch directory. SIGPIPE is among them because whoever
	// reads standard output may die first (`go run` when it is killed), and
	// its default action would leave the scratch directory behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	defer stop()
	e := &env{ctx: ctx, root: root, seed: *seed, scale: *scale, out: stdout}
	if *against != "" {
		if e.against, err = filepath.Abs(*against); err != nil {
			return fail(err)
		}
	}
	if e.scratch, err = newScratch(root); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)
	e.yard = newYardstick(filepath.Join(e.scratch, "yardstick"))
	tracePath := *traceFlag
	switch tracePath {
	case "0":
		tracePath = ""
	case "1":
		tracePath = filepath.Join(root, buildDir, "trace.json")
	}

	window := time.Duration(*seconds) * time.Second
	doc, err := e.measure(ws, tracePath, func(timed int, spent time.Duration) bool { return timed >= *reps && spent >= window })
	if err != nil {
		return fail(err)
	}
	regressed := e.against != "" && comparePairs(stdout, doc)
	if *outPath != "" {
		if err := appendRun(*outPath, doc); err != nil {
			return fail(err)
		}
	}
	if len(ws) == 1 {
		if wd := doc.Workloads[0]; tracePath == "" {
			fmt.Fprintf(stdout, "result line: the yardstick took %.4g s, %.3f times its reference of %.4g s; the line's times are divided by that, its rates multiplied\n",
				wd.Yardstick.Median, wd.pace(), yardstickReference)
		}
		line, err := resultLine(doc, tracePath != "")
		if err != nil {
			return fail(err)
		}
		if _, err := stdout.Write(line); err != nil {
			return fail(err)
		}
	}
	if attempted, failed := doc.counts(); failed > 0 {
		return fail(fmt.Errorf("%d of %d runs failed their checks", failed, attempted))
	}
	if regressed {
		return exitRegressed
	}
	return 0
}

// runDoc is one invocation's result: one JSON object per configuration.
type runDoc struct {
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Reps    int     `json:"reps"` // timed sweeps made
	Machine machine `json:"machine"`
	// Against is the other checkout of an invocation made with -against.
	Against string `json:"against,omitempty"`
	// Invocation holds the end-to-end metrics measured per invocation rather
	// than per workload: setup_s and fidelity_mdcc.
	Invocation map[string]sample `json:"invocation"`
	// RoundTrip is "ok", or what the untimed round trip found wrong; it
	// counts as one run attempted.
	RoundTrip string        `json:"round_trip"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name    string `json:"name"`
	Command string `json:"command"`
	// Attempted and Failed count the workload's runs, the warm-up and the
	// traced pass's commands included.
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	// Yardstick is what the yardstick took before each timed run, or pair of
	// runs (yardstick.go); the samples above are as measured.
	Yardstick sample `json:"host_yardstick_s"`
	// Against is the other checkout's side of an invocation made with
	// -against: run i of it was made back to back with run i above.
	Against  *againstDoc           `json:"against,omitempty"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	Budget   []budgetRow           `json:"budget,omitempty"`
	// BudgetOpen says why the traced budget did not close: the spans under
	// the root miss its wall-clock by more than budgetTolerance, or a
	// difference of two measurements came out negative. Empty when it closed.
	BudgetOpen string `json:"budget_open,omitempty"`
}

type againstDoc struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]sample `json:"end_to_end"`
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

const roundTripOK = "ok"

// counts is every checked run of the invocation and how many failed.
func (d runDoc) counts() (attempted, failed int) {
	attempted = 1
	if d.RoundTrip != roundTripOK {
		failed = 1
	}
	for _, w := range d.Workloads {
		attempted += w.Attempted
		failed += w.Failed
		if w.Against != nil {
			attempted += w.Against.Attempted
			failed += w.Against.Failed
		}
	}
	return attempted, failed
}

// resultFile is what -out writes and -compare reads: every invocation
// appended to it, so a baseline of several seeds, or several invocations at
// one seed, is one file.
type resultFile struct {
	Schema string   `json:"schema"`
	Runs   []runDoc `json:"runs"`
}

const schema = "impressions-pipeline-bench/2"

func loadResults(path string) (resultFile, error) {
	var f resultFile
	if err := readJSON(path, &f); err != nil {
		return f, err
	}
	if f.Schema != schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return f, nil
}

// appendRun adds the invocation to the result file, which holds one run a
// line so that a committed baseline grows by lines.
func appendRun(path string, doc runDoc) error {
	f := resultFile{Schema: schema}
	if _, err := os.Stat(path); err == nil {
		if f, err = loadResults(path); err != nil {
			return err
		}
	}
	f.Runs = append(f.Runs, doc)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"schema\": %q, \"runs\": [\n", f.Schema)
	for i, r := range f.Runs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(f.Runs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// printSample prints one end-to-end metric by name with its unit; kind is
// "end_to_end", or "against" for the other checkout's side.
func printSample(w io.Writer, kind, workload, name string, s sample) {
	fmt.Fprintf(w, "%-10s %-15s %-14s %12.6g %-8s min %.6g q1 %.6g q3 %.6g max %.6g n %d\n",
		kind, workload, name, s.Median, s.Unit, s.Min, s.Q1, s.Q3, s.Max, s.N)
}

func printLayers(w io.Writer, workload string, values map[string]layerValue) {
	for _, m := range layerMetrics {
		if v, ok := values[m.Name]; ok {
			fmt.Fprintf(w, "per_layer  %-15s %-38s %12.6g %s\n", workload, m.Name, v.Value, v.Unit)
		}
	}
}

// measure is the one way the harness runs: set up, check the round trip, make
// a warm-up sweep and timed sweeps until done says so, then (apart, and
// after) the traced pass of every workload when a trace is asked for.
func (e *env) measure(ws []workload, tracePath string, done func(timed int, spent time.Duration) bool) (runDoc, error) {
	doc := runDoc{Seed: e.seed, Scale: e.scale, Machine: e.machine(), Against: e.against, RoundTrip: roundTripOK}
	fmt.Fprintf(e.out, "pipeline: seed %d, scale %g, outputs under %s (%s)\n", e.seed, e.scale, doc.Machine.Scratch, doc.Machine.ScratchFS)
	st, err := e.setup(ws)
	if err != nil {
		return doc, err
	}
	doc.Invocation = map[string]sample{
		"setup_s":       summarize("s", st.seconds),
		"fidelity_mdcc": summarize("mdcc", []float64{st.fidelity}),
	}
	if err := e.roundTrip(); err != nil {
		if e.ctx.Err() != nil {
			return doc, err
		}
		doc.RoundTrip = err.Error()
		fmt.Fprintf(e.out, "FAILED round trip: %v\n", err)
	}
	tallies, timed, err := e.sweeps(ws, st.refs, done)
	if err != nil {
		return doc, err
	}
	doc.Reps = timed
	tr := newTracer()
	for _, w := range ws {
		t := tallies[w.Name]
		wd := workloadDoc{Name: w.Name, Command: "impressions " + strings.Join(e.command(w, "$T"), " "),
			Attempted: t[0].attempted, Failed: t[0].failed, EndToEnd: t[0].endToEnd(), Yardstick: t[0].yardstick()}
		if e.against != "" {
			wd.Against = &againstDoc{t[1].attempted, t[1].failed, t[1].endToEnd()}
		}
		if tracePath != "" {
			p, err := e.trace(tr, w, st.refs[w.spec.name])
			wd.Attempted, wd.Failed = wd.Attempted+p.attempted, wd.Failed+p.failed
			if err != nil {
				return doc, fmt.Errorf("traced pass of %s: %w", w.Name, err)
			}
			wd.PerLayer, wd.Budget, wd.BudgetOpen = p.values(), p.budget, strings.Join(p.open, "; ")
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	fmt.Fprintln(e.out)
	for _, m := range endToEndMetrics {
		if s, ok := doc.Invocation[m.Name]; ok {
			printSample(e.out, "end_to_end", "(invocation)", m.Name, s)
		}
	}
	for _, wd := range doc.Workloads {
		for _, m := range endToEndMetrics {
			s, ok := wd.EndToEnd[m.Name]
			if !ok {
				continue
			}
			printSample(e.out, "end_to_end", wd.Name, m.Name, s)
			if wd.Against != nil {
				printSample(e.out, "against", wd.Name, m.Name, wd.Against.EndToEnd[m.Name])
			}
		}
		printSample(e.out, "host", wd.Name, "yardstick_s", wd.Yardstick)
		printLayers(e.out, wd.Name, wd.PerLayer)
	}
	if tracePath != "" {
		if err := tr.writeChrome(tracePath); err != nil {
			return doc, err
		}
		fmt.Fprintf(e.out, "trace: %d spans written to %s (open it at ui.perfetto.dev)\n", len(tr.spans), tracePath)
	}
	return doc, nil
}

// pace is how much slower than the yardstick's reference the machine ran
// while the workload's timed runs were made: 1.1 is a tenth slower.
func (wd workloadDoc) pace() float64 { return wd.Yardstick.Median / yardstickReference }

// resultLine renders the object the driver reads from the last line of a
// one-workload invocation. Untraced, its metrics are the end-to-end metrics
// BENCHMARK.json names, each one's median; traced, the per-layer metrics it
// names, which are the ones every workload reports.
//
// The driver compares runs made minutes and hours apart on a machine whose
// speed wanders by more than its bounds, so the timings in this line, and in
// this line only, are taken to the yardstick's reference speed: a time is
// divided by the run's pace and a rate multiplied by it. Everything printed
// above the line and kept in result files is as measured, the yardstick's
// own samples included.
func resultLine(doc runDoc, traced bool) ([]byte, error) {
	wd := doc.Workloads[0]
	metrics := map[string]layerValue{}
	if traced {
		for _, m := range sharedLayers {
			v, ok := wd.PerLayer[m.Name]
			if !ok {
				return nil, fmt.Errorf("the traced pass of %s did not measure %s, which BENCHMARK.json names", wd.Name, m.Name)
			}
			metrics[m.Name] = v
		}
	} else {
		for _, m := range endToEndMetrics {
			s, ok := wd.EndToEnd[m.Name]
			if !ok {
				s = doc.Invocation[m.Name]
			}
			if m.Contract > 0 {
				metrics[m.Name] = layerValue{Unit: m.Unit, Value: s.Median * math.Pow(wd.pace(), float64(-m.Pace))}
			}
		}
	}
	attempted, failed := doc.counts()
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]layerValue `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	return append(line, '\n'), err
}
