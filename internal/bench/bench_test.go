package bench

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"impressions/internal/stats"
)

// quickOpts runs every experiment at reduced scale so the whole suite stays
// fast in CI.
func quickOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	o.Trials = 3
	return o
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) < 10 {
		t.Fatalf("expected at least 10 experiments, got %d", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name() == "" || e.Title() == "" {
			t.Errorf("experiment with empty name or title: %T", e)
		}
		if seen[e.Name()] {
			t.Errorf("duplicate experiment name %q", e.Name())
		}
		seen[e.Name()] = true
		if Lookup(e.Name()) == nil {
			t.Errorf("Lookup(%q) failed", e.Name())
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name should return nil")
	}
	if len(Names()) != len(reg) {
		t.Error("Names() length mismatch")
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	res, err := NewFig1().Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Relative
	if rel["Cached"] >= 0.8 {
		t.Errorf("cached relative overhead %.2f should be well below 1", rel["Cached"])
	}
	if rel["Fragmented"] <= 1.0 {
		t.Errorf("fragmented relative overhead %.2f should exceed 1", rel["Fragmented"])
	}
	if rel["Flat Tree"] >= 1.0 {
		t.Errorf("flat tree relative overhead %.2f should be below 1", rel["Flat Tree"])
	}
	if rel["Deep Tree"] <= 1.0 {
		t.Errorf("deep tree relative overhead %.2f should exceed 1", rel["Deep Tree"])
	}
	spread := rel["Deep Tree"] / rel["Flat Tree"]
	if spread < 2 {
		t.Errorf("deep/flat spread %.2f; the paper reports roughly 3x", spread)
	}
}

func TestTable3AccuracyBands(t *testing.T) {
	rows, trials, err := NewTable3().Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if trials < 2 {
		t.Fatalf("expected at least 2 trials, got %d", trials)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 parameters, got %d", len(rows))
	}
	for _, r := range rows {
		switch r.Parameter {
		case "bytes with depth":
			if r.Value < 0 || r.Value > 2.0 {
				t.Errorf("%s = %.3f MB outside plausible band", r.Parameter, r.Value)
			}
		case "file size by containing bytes":
			// The desired byte curve puts a sizable share of bytes in
			// Pareto-tail files; an image of only a few thousand files holds
			// zero or one such file, so this MDCC is dominated by heavy-tail
			// sampling noise: whether the image drew its one tail file moves
			// it more than any change to the generator. Only sanity-check it.
			if r.Value < 0 || r.Value > 0.6 {
				t.Errorf("%s MDCC = %.3f outside sanity band", r.Parameter, r.Value)
			}
		default:
			if r.Value < 0 || r.Value > 0.30 {
				t.Errorf("%s MDCC = %.3f; generated images should track the desired curves", r.Parameter, r.Value)
			}
		}
	}
}

func TestTable4ConvergenceShape(t *testing.T) {
	rows, _, err := NewTable4().Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 targets, got %d", len(rows))
	}
	for _, r := range rows {
		if r.SuccessRate < 0.5 {
			t.Errorf("target %.1fx: success rate %.0f%% too low", r.TargetFactor, r.SuccessRate*100)
		}
		if r.SuccessRate > 0 && r.AvgFinalBeta > 0.05 {
			t.Errorf("target %.1fx: final beta %.3f exceeds 5%%", r.TargetFactor, r.AvgFinalBeta)
		}
	}
}

func TestFig5InterpolationAccuracy(t *testing.T) {
	rows, curves, err := NewFig5().Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows (2 distributions x I/E), got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Passed {
			t.Errorf("%s at %.0fGB (%s): D=%.3f exceeded the acceptance threshold", r.Distribution, r.TargetGB, r.Region, r.D)
		}
	}
	if len(curves) != 4 {
		t.Errorf("expected 4 printable curves, got %d", len(curves))
	}
}

func TestFig6AssumptionsNonTrivial(t *testing.T) {
	rows, err := NewFig6().Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 assumptions, got %d", len(rows))
	}
	// The depth-10 and the 200KB-text cutoffs must exclude a visible share of
	// content on a representative image (the paper's central claim here).
	if rows[1].ByteFrac < 0.2 {
		t.Errorf("GDL 200KB text cutoff misses only %.1f%% of text bytes; expected a large share", rows[1].ByteFrac*100)
	}
	for _, r := range rows {
		if r.FileFrac < 0 || r.FileFrac > 1 || r.ByteFrac < 0 || r.ByteFrac > 1 {
			t.Errorf("%s/%s: fractions out of range", r.App, r.Assumption)
		}
	}
}

// TestRunOneQuickProducesOutput runs every experiment once at quick scale
// but Figures 7 and 8, which index their images once per engine, variant and
// content policy and would take most of the package's time. What they show
// is the engines' ordering, which internal/search holds on cheaper images
// (TestFigure7ContentCrossover, TestBeagleVariants); the benchmark smoke run
// (BenchmarkFig7IndexSize, BenchmarkFig8BeagleVariants) runs and prints them.
func TestRunOneQuickProducesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full harness in -short mode")
	}
	var buf bytes.Buffer
	for _, e := range Registry() {
		if e.Name() == "fig7" || e.Name() == "fig8" {
			continue
		}
		if err := RunOne(&buf, e, quickOpts()); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "==== "+e.Name()) {
			t.Errorf("output missing section for %s", e.Name())
		}
	}
	out := buf.String()
	if len(out) < 2000 {
		t.Errorf("suspiciously short harness output (%d bytes)", len(out))
	}
	// Table 6's layout extra is Image1's simulated disk, which runs at
	// every scale: the quick run must show what it costs.
	if m := layoutExtraRe.FindStringSubmatch(out); m == nil {
		t.Error("table6 prints no layout extra")
	} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
		t.Errorf("table6 prints a layout extra of %q seconds, want more than nothing", m[1])
	}
}

var layoutExtraRe = regexp.MustCompile(`layout score 0\.98 \+([0-9.]+)s`)

// TestPrintSizeSeries: the size-series printer of Figures 2, 3 and 5 prints
// each histogram normalized to its own total, in the order given, over only
// the bins where either side reaches the floor.
func TestPrintSizeSeries(t *testing.T) {
	a, b := stats.NewPowerOfTwoHistogram(20), stats.NewPowerOfTwoHistogram(20)
	a.AddWeighted(1000, 3)   // [512, 1K): 3/4 of A
	a.AddWeighted(5000, 1)   // [4K, 8K): 1/4 of A
	a.AddWeighted(3e5, 1e-6) // [256K, 512K): under the floor on both sides
	b.AddWeighted(5000, 1)   // [4K, 8K): 1/2 of B
	b.AddWeighted(1e5, 1)    // [64K, 128K): 1/2 of B
	var out bytes.Buffer
	printSizeSeries(&out, "A", a, "B", b, 1e-3)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Join(strings.Fields(line), " "))
	}
	want := []string{"size bin A B", "512 0.75 0", "4K 0.25 0.5", "64K 0 0.5"}
	if !slices.Equal(got, want) {
		t.Errorf("printed\n%s\nwant the rows %q", out.String(), want)
	}
}
