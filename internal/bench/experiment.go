// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Figures 1-8, Tables 3-6) plus ablation
// studies of the design choices the paper calls out (Ablation). Each
// experiment is a self-contained Experiment value that prints the same rows
// or series the paper reports; the benchrunner command and the
// repository-level Go benchmarks both drive this package.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Options tunes how experiments run.
type Options struct {
	// Seed is the master seed; every experiment derives its own streams from
	// it so runs are reproducible.
	Seed int64
	// Trials is the number of repetitions for experiments that average over
	// trials (Table 3, Table 4). Zero selects each experiment's default.
	Trials int
	// Quick shrinks image sizes so the whole suite completes in seconds; used
	// by unit tests and the -quick flag of benchrunner.
	Quick bool
}

// DefaultOptions returns the options used when none are supplied.
func DefaultOptions() Options { return Options{Seed: 20090225} }

// Experiment regenerates one table or figure.
type Experiment interface {
	// Name is the short identifier used on the command line (e.g. "fig1").
	Name() string
	// Title describes what the experiment reproduces.
	Title() string
	// Run executes the experiment and writes its rows/series to w.
	Run(w io.Writer, opts Options) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		NewFig1(),
		NewFig2(),
		NewTable3(),
		NewFig3(),
		NewTable4(),
		NewFig5(),
		NewTable6(),
		NewFig6(),
		NewFig7(),
		NewFig8(),
		NewAblation(),
	}
}

// Lookup finds an experiment by name (case-insensitive); nil if unknown.
func Lookup(name string) Experiment {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, e := range Registry() {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// Names lists the registered experiment names.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, opts Options) error {
	for _, e := range Registry() {
		if err := RunOne(w, e, opts); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment with a header and footer.
func RunOne(w io.Writer, e Experiment, opts Options) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", e.Name(), e.Title())
	if err := e.Run(w, opts); err != nil {
		return fmt.Errorf("bench: experiment %s: %w", e.Name(), err)
	}
	fmt.Fprintln(w)
	return nil
}

// table is a small helper for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.4g", v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	fmt.Fprintln(t.tw, strings.Join(parts, "\t"))
}

func (t *table) flush() { t.tw.Flush() }

// series prints an x/y series as aligned columns, used for figure-style
// output.
func series(w io.Writer, header string, labels []string, cols map[string][]float64, order []string) {
	tb := newTable(w)
	headerCells := append([]interface{}{header}, toCells(order)...)
	tb.row(headerCells...)
	for i, label := range labels {
		cells := []interface{}{label}
		for _, name := range order {
			col := cols[name]
			if i < len(col) {
				cells = append(cells, col[i])
			} else {
				cells = append(cells, "")
			}
		}
		tb.row(cells...)
	}
	tb.flush()
}

func toCells(ss []string) []interface{} {
	out := make([]interface{}, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
