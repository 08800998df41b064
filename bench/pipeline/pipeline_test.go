package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the catalogue")

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the committed contract file.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestCatalogue checks what needs no run: names, and that every layer metric
// says which end-to-end metric on which workload it should move.
func TestCatalogue(t *testing.T) {
	for _, m := range layerMetrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("layer metric %q: bad name", m.Name)
		}
		if len(m.Moves) == 0 && m.Informational == "" {
			t.Errorf("%s names no end-to-end metric it should move and does not say why", m.Name)
		}
		for _, target := range m.Moves {
			metric, workload, _ := strings.Cut(target, "@")
			if _, ok := findEndToEnd(metric); !ok {
				t.Errorf("%s should move %q: no such end-to-end metric", m.Name, target)
			}
			if _, ok := findWorkload(workload); !ok {
				t.Errorf("%s should move %q: no such workload", m.Name, target)
			}
		}
	}
	for _, m := range endToEndMetrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("end-to-end metric %q: bad name", m.Name)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// What BENCHMARK.json tells the driver to run. It makes 4 + 22 x 6 runs that
// must all end within 3420 s, which at scale 1 would not fit one sweep each;
// following the -scale rule in README.md every workload is scaled together.
// At 0.1 a run of the command takes 0.4 to 1.1 s, so a window of thirteen
// seconds holds 9 to 22 of them with the yardstick before each; an invocation
// then takes 18 to 19 s (24 to 37 with the traced pass), 2800 s for all of them.
var contractCommand = []string{"go", "run", "-C", "bench/pipeline", ".", "-scale", "0.1"}

const contractSeconds = 13

// renderBenchmarkJSON is BENCHMARK.json as the catalogue has it.
func renderBenchmarkJSON(t *testing.T) []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: contractCommand, Paths: []string{"bench/pipeline"}, RunSeconds: contractSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, named{wl.Name, wl.Why})
	}
	for _, m := range endToEndMetrics {
		if m.Contract > 0 {
			doc.EndToEnd = append(doc.EndToEnd, metric{m.Name, m.Unit, m.Better, &m.Contract})
		}
	}
	for _, m := range sharedLayers {
		doc.PerLayer = append(doc.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchmarkJSON keeps the committed contract file and the catalogue from
// naming different things: `go test -run BenchmarkJSON -update` in this
// directory rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	path, want := filepath.Join(root, "BENCHMARK.json"), renderBenchmarkJSON(t)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the catalogue renders; run `go test -run BenchmarkJSON -update` in bench/pipeline")
	}
}

// TestSmoke builds the harness as the driver does and runs every workload,
// the traced pass included, at a hundredth of the size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	harness := filepath.Join(tmp, "pipeline")
	build := exec.Command("go", "build", "-o", harness, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	pipeline := func(args ...string) (string, error) {
		cmd := exec.Command(harness, args...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(renderBenchmarkJSON(t), &contract); err != nil {
		t.Fatal(err)
	}

	result := filepath.Join(tmp, "result.json")
	// -against builds the same source a second time and runs the two builds
	// in turns. One pair of 0.1 s runs cannot say that they are equally fast,
	// so a regression verdict (and only that) is let pass here.
	out, err := pipeline("-seed", "1", "-scale", "0.01", "-reps", "1", "-trace", filepath.Join(tmp, "trace.json"), "-out", result, "-against", root)
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == exitRegressed) {
		t.Fatalf("pipeline: %v\n%s", err, out)
	}
	if !strings.Contains(out, "in pairs") || !strings.Contains(out, "\nagainst    distrun_k2      wall_s") {
		t.Errorf("-against printed neither the other side's samples nor the verdicts in pairs:\n%s", out)
	}

	// printed[kind][metric][workload] is the unit the metric was printed with.
	printed := map[string]map[string]map[string]string{"end_to_end": {}, "per_layer": {}}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && printed[f[0]] != nil {
			if printed[f[0]][f[2]] == nil {
				printed[f[0]][f[2]] = map[string]string{}
			}
			printed[f[0]][f[2]][f[1]] = f[4]
		}
	}
	// Every end-to-end metric BENCHMARK.json names is printed with its unit,
	// and the other way round. fail_ratio is the one exception: the contract
	// carries it as the result line's attempted and failed.
	wantEndToEnd := map[string]string{"fail_ratio": "ratio"}
	for _, m := range contract.EndToEnd {
		wantEndToEnd[m.Name] = m.Unit
	}
	for name, unit := range wantEndToEnd {
		if len(printed["end_to_end"][name]) == 0 {
			t.Errorf("end-to-end metric %s is in BENCHMARK.json but was not printed", name)
		}
		for workload, got := range printed["end_to_end"][name] {
			if got != unit {
				t.Errorf("end-to-end metric %s on %s: printed in %q, BENCHMARK.json says %q", name, workload, got, unit)
			}
		}
	}
	for name := range printed["end_to_end"] {
		if _, ok := wantEndToEnd[name]; !ok {
			t.Errorf("end-to-end metric %s is printed but not in BENCHMARK.json", name)
		}
	}
	// Every per-layer metric BENCHMARK.json names is printed on every
	// workload; every other one of the catalogue on some workloads but not
	// all; and nothing outside the catalogue.
	inContract := map[string]bool{}
	for _, m := range contract.PerLayer {
		inContract[m.Name] = true
	}
	for _, m := range layerMetrics {
		on := printed["per_layer"][m.Name]
		switch {
		case inContract[m.Name] && len(on) != len(workloads):
			t.Errorf("per-layer metric %s is in BENCHMARK.json but was printed on %d of %d workloads", m.Name, len(on), len(workloads))
		case !inContract[m.Name] && (len(on) == 0 || len(on) == len(workloads)):
			t.Errorf("per-layer metric %s is not in BENCHMARK.json but was printed on %d of %d workloads", m.Name, len(on), len(workloads))
		}
		for workload, got := range on {
			if got != m.Unit {
				t.Errorf("per-layer metric %s on %s: printed in %q, the catalogue says %q", m.Name, workload, got, m.Unit)
			}
		}
	}
	for name := range printed["per_layer"] {
		if _, ok := findLayerMetric(name); !ok {
			t.Errorf("per-layer metric %s is printed but not in the catalogue", name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(out, "\n"+w.Name+": layer budget of one traced run") {
			t.Errorf("no layer budget table for %s", w.Name)
		}
	}
	if data, err := os.ReadFile(filepath.Join(tmp, "trace.json")); err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Errorf("the Chrome trace was not written (%v)", err)
	}

	if out, err := pipeline("-compare", result, result); err != nil {
		t.Errorf("-compare of a result with itself: %v\n%s", err, out)
	}

	// The result object of a one-workload invocation carries exactly
	// BENCHMARK.json's metrics, whichever way it was traced.
	file, err := loadResults(result)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		doc := file.Runs[0]
		doc.Workloads = doc.Workloads[:1]
		var want []string
		for _, m := range contract.EndToEnd {
			want = append(want, m.Name)
		}
		if traced {
			want = want[:0]
			for _, m := range contract.PerLayer {
				want = append(want, m.Name)
			}
		}
		line, err := resultLine(doc, traced)
		if err != nil {
			t.Fatal(err)
		}
		checkResultLine(t, line, want)
	}
}

// checkResultLine checks the driver's result object: exactly the four keys,
// and exactly the metrics wanted, each with a value and a unit.
func checkResultLine(t *testing.T, raw []byte, want []string) {
	t.Helper()
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  *string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("result line lacks a key or reports a failure: %s", raw)
	}
	var got []string
	for name, m := range line.Metrics {
		if m.Value == nil || m.Unit == nil || *m.Unit == "" {
			t.Errorf("metric %s lacks value or unit", name)
		}
		got = append(got, name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the result line carries %v, want %v", got, want)
	}
}

// TestResultLinePace checks that the driver's line carries timings at the
// yardstick's reference speed, and everything else as measured.
func TestResultLinePace(t *testing.T) {
	one := func(unit string, v float64) sample { return summarize(unit, []float64{v}) }
	doc := runDoc{RoundTrip: roundTripOK,
		Invocation: map[string]sample{"setup_s": one("s", 3), "fidelity_mdcc": one("mdcc", 0.08)},
		Workloads: []workloadDoc{{Name: "tar_small", Attempted: 2, Yardstick: one("s", 2*yardstickReference),
			EndToEnd: map[string]sample{"wall_s": one("s", 4), "cpu_s": one("s", 6), "files_per_s": one("files/s", 100),
				"mb_per_s": one("MB/s", 10), "peak_rss_mb": one("MiB", 50)}}}}
	raw, err := resultLine(doc, false)
	if err != nil {
		t.Fatal(err)
	}
	var line struct{ Metrics map[string]layerValue }
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	// The machine ran at half the reference speed: times halve, rates double.
	for name, want := range map[string]float64{"wall_s": 2, "cpu_s": 3, "files_per_s": 200, "mb_per_s": 20,
		"peak_rss_mb": 50, "setup_s": 3, "fidelity_mdcc": 0.08} {
		if got := line.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v in the result line, want %v", name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	s := summarize("s", []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", s.Q1, s.Median, s.Q3)
	}
}

func TestVerdict(t *testing.T) {
	wall, _ := findEndToEnd("wall_s")
	rate, _ := findEndToEnd("mb_per_s")
	fails, _ := findEndToEnd("fail_ratio")
	tight := func(v float64) sample { return summarize("s", []float64{v * 0.99, v, v, v, v * 1.01}) }
	noisy := func(v float64) sample { return summarize("s", []float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}) }
	for _, c := range []struct {
		m        endToEnd
		old, new sample
		want     string
	}{
		{wall, tight(10), tight(10.5), "ok"},
		{wall, tight(10), tight(11.5), "REGRESSION"},
		{wall, tight(10), tight(8), "better"},
		{rate, tight(10), tight(8), "REGRESSION"},
		{rate, tight(10), tight(12), "better"},
		// Under noise only runs that lie wholly apart decide, either way.
		{wall, noisy(10), tight(10.2), "unresolved"},
		{wall, noisy(10), tight(11.5), "unresolved"},
		{wall, tight(10), noisy(11.5), "unresolved"},
		{wall, noisy(10), tight(5), "better"},
		{wall, noisy(10), tight(20), "REGRESSION"},
		{rate, noisy(10), tight(11.5), "unresolved"},
		{rate, noisy(10), tight(5), "REGRESSION"},
		{fails, summarize("ratio", []float64{0}), summarize("ratio", []float64{0}), "ok"},
		{fails, summarize("ratio", []float64{0}), summarize("ratio", []float64{0.2}), "REGRESSION"},
	} {
		if got := verdict(c.m, c.m.Bound, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.old.Median, c.new.Median, got, c.want)
		}
	}
}

// TestPool checks that -compare joins the invocations a file holds at one
// seed and scale, so that drift between them widens the spread it judges.
func TestPool(t *testing.T) {
	invocation := func(seed int64, wall ...float64) runDoc {
		return runDoc{Seed: seed, Scale: 1, Reps: len(wall), Workloads: []workloadDoc{{Name: "tar_small", Attempted: len(wall) + 1, Failed: 1,
			EndToEnd: map[string]sample{"wall_s": summarize("s", wall)}}}}
	}
	f := resultFile{Runs: []runDoc{invocation(1, 10, 10.1, 10.2), invocation(2, 99), invocation(1, 12, 12.1, 12.2)}}
	p := pool(f, 1, 1)
	wall := p.samples["tar_small"]["wall_s"]
	if p.invocations != 2 || p.reps != 6 || wall.N != 6 || wall.Min != 10 || wall.Max != 12.2 {
		t.Errorf("pooled %d invocations, %d sweeps, wall_s %+v", p.invocations, p.reps, wall)
	}
	if wall.spread() < 0.15 {
		t.Errorf("two invocations a fifth apart pooled to a spread of %.3f", wall.spread())
	}
	if got := p.samples["tar_small"]["fail_ratio"].Median; got != 0.25 {
		t.Errorf("pooled fail_ratio %v, want 2 of 8", got)
	}
}

// TestComparePairs checks that an invocation made with -against is judged by
// the ratio within each pair: drift that moves both halves of a pair cancels.
func TestComparePairs(t *testing.T) {
	drifting := []float64{10, 12, 14, 11, 13, 15, 10.5, 12.5} // a machine whose speed wanders by a third
	doc := func(factor float64) runDoc {
		scaled := make([]float64, len(drifting))
		for i, v := range drifting {
			scaled[i] = v * factor * (1 + 0.01*float64(i%3)) // and a hundredth of noise within pairs
		}
		return runDoc{Seed: 1, Scale: 1, Reps: len(drifting), Against: "../parent", Workloads: []workloadDoc{{Name: "tar_small",
			EndToEnd: map[string]sample{"wall_s": summarize("s", scaled)},
			Against:  &againstDoc{EndToEnd: map[string]sample{"wall_s": summarize("s", drifting)}}}}}
	}
	wall, _ := findEndToEnd("wall_s")
	for _, c := range []struct {
		factor    float64
		want      string
		regressed bool
	}{{1, "ok", false}, {1.3, "REGRESSION", true}, {0.7, "better", false}} {
		var out bytes.Buffer
		d := doc(c.factor)
		if got := comparePairs(&out, d); got != c.regressed || !strings.Contains(out.String(), c.want) {
			t.Errorf("pairs %.1fx apart: regressed %v, want %v and %q in\n%s", c.factor, got, c.regressed, c.want, out.String())
		}
		// The same runs judged as two unrelated samples drown in the drift.
		wd := d.Workloads[0]
		if got := verdict(wall, wall.Bound, wd.Against.EndToEnd["wall_s"], wd.EndToEnd["wall_s"]); c.factor != 1 && got != "unresolved" {
			t.Errorf("unpaired %.1fx apart: %s, want unresolved", c.factor, got)
		}
	}
}
