package bench

import (
	"fmt"
	"io"

	"impressions/internal/core"
	"impressions/internal/stats"
)

// Table3 reproduces Table 3: the statistical accuracy of generated images in
// terms of MDCC (Maximum Displacement of the Cumulative Curves) between the
// generated and desired distributions for the eight Figure 2 parameters,
// averaged over a number of trials (20 in the paper).
type Table3 struct{}

// NewTable3 returns the Table 3 experiment.
func NewTable3() Table3 { return Table3{} }

// Name implements Experiment.
func (Table3) Name() string { return "table3" }

// Title implements Experiment.
func (Table3) Title() string {
	return "Table 3: statistical accuracy (MDCC) of generated images"
}

// Table3Row is one parameter's averaged accuracy.
type Table3Row struct {
	Parameter string
	Value     float64 // MDCC, except bytes-with-depth which is mean MB difference
	Paper     float64
}

// Run implements Experiment.
func (t3 Table3) Run(w io.Writer, opts Options) error {
	rows, trials, err := t3.Measure(opts)
	if err != nil {
		return err
	}
	tb := newTable(w)
	tb.row("parameter", "measured", "paper", "metric")
	for _, r := range rows {
		metric := "MDCC"
		if r.Parameter == "bytes with depth" {
			metric = "mean |diff| MB"
		}
		tb.row(r.Parameter, fmt.Sprintf("%.3f", r.Value), fmt.Sprintf("%.3f", r.Paper), metric)
	}
	tb.flush()
	fmt.Fprintf(w, "averages over %d trials\n", trials)
	return nil
}

// Measure runs the trials and returns the averaged rows.
func (t3 Table3) Measure(opts Options) ([]Table3Row, int, error) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 20
	}
	files, dirs := 20000, 4000
	if opts.Quick {
		trials = 3
		files, dirs = 4000, 800
	}

	paper := map[string]float64{
		"directory count with depth":      0.03,
		"directory size (subdirectories)": 0.004,
		"file size by count":              0.04,
		"file size by containing bytes":   0.02,
		"extension popularity":            0.03,
		"file count with depth":           0.05,
		"bytes with depth":                0.12,
		"file count with depth (special)": 0.06,
	}

	sums := map[string][]float64{}
	for trial := 0; trial < trials; trial++ {
		cfg := core.Config{
			NumFiles:              files,
			NumDirs:               dirs,
			Seed:                  opts.Seed + int64(trial)*7919,
			UseSpecialDirectories: true,
		}
		res, err := core.GenerateImage(cfg)
		if err != nil {
			return nil, 0, err
		}
		acc := core.MeasureAccuracy(res.Image)
		m := acc.AsMap()
		// Rename the keys to the Table 3 wording used in `paper`.
		m["bytes with depth"] = acc.BytesWithDepthMB
		for k, v := range m {
			sums[k] = append(sums[k], v)
		}
	}

	order := []string{
		"directory count with depth",
		"directory size (subdirectories)",
		"file size by count",
		"file size by containing bytes",
		"extension popularity",
		"file count with depth",
		"bytes with depth",
		"file count with depth (special)",
	}
	rows := make([]Table3Row, 0, len(order))
	for _, name := range order {
		vals := sums[name]
		if len(vals) == 0 {
			continue
		}
		rows = append(rows, Table3Row{Parameter: name, Value: stats.Mean(vals), Paper: paper[name]})
	}
	return rows, trials, nil
}
