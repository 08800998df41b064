package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

// Table6 reproduces Table 6: the time taken to create the two reference
// file-system images, broken down by generation phase — directory structure,
// file size resolution, extension assignment, file placement, content
// generation, and on-disk file/directory creation — plus the extra cost of
// the hybrid word model and of a fragmented (layout score 0.98) layout.
// Each image is one run of the product's metadata pass: five phases come
// from its report (Image1 is generated at layout score 0.98, so its
// simulated disk's phase is the layout extra), and two stopwatches time
// content generation and on-disk creation.
//
// Image1 is 4.55 GB with 20000 files and 4000 directories; Image2 is 12 GB
// with 52000 files and 4000 directories (the paper's configurations). In
// quick mode both are scaled down by 50x so the experiment finishes in
// seconds; the scale is reported with the results.
type Table6 struct{}

// NewTable6 returns the Table 6 experiment.
func NewTable6() Table6 { return Table6{} }

// Name implements Experiment.
func (Table6) Name() string { return "table6" }

// Title implements Experiment.
func (Table6) Title() string {
	return "Table 6: time to create file-system images (per-phase breakdown)"
}

// Table6Column is the per-phase timing for one image.
type Table6Column struct {
	Label       string
	FSBytes     int64
	Files       int
	Dirs        int
	PhaseTimes  map[string]float64 // seconds
	TotalTime   float64
	HybridExtra float64 // extra seconds for hybrid word-model content (Image1 only)
	LayoutExtra float64 // extra seconds for layout score 0.98 (Image1 only)
}

// Run implements Experiment.
func (t6 Table6) Run(w io.Writer, opts Options) error {
	cols, scale, err := t6.Measure(opts)
	if err != nil {
		return err
	}
	order := []string{
		"directory structure",
		"file sizes distribution",
		"popular extensions",
		"file and bytes with depth",
		"file content (single-word)",
		"on-disk file/dir creation",
	}
	tb := newTable(w)
	header := []interface{}{"phase (seconds)"}
	for _, c := range cols {
		header = append(header, c.Label)
	}
	tb.row(header...)
	for _, phase := range order {
		cells := []interface{}{phase}
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%.2f", c.PhaseTimes[phase]))
		}
		tb.row(cells...)
	}
	totals := []interface{}{"total"}
	for _, c := range cols {
		totals = append(totals, fmt.Sprintf("%.2f", c.TotalTime))
	}
	tb.row(totals...)
	tb.flush()
	fmt.Fprintf(w, "image configurations (scale 1/%d of the paper's): ", scale)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "; ")
		}
		fmt.Fprintf(w, "%s = %s, %d files, %d dirs", c.Label, stats.FormatBytes(float64(c.FSBytes)), c.Files, c.Dirs)
	}
	fmt.Fprintln(w)
	// Four decimals: at quick scale the simulated disk takes under a
	// millisecond, which two would print as nothing.
	fmt.Fprintf(w, "additional features (Image1 only): file content with hybrid word model +%.4fs; layout score 0.98 +%.4fs\n",
		cols[0].HybridExtra, cols[0].LayoutExtra)
	fmt.Fprintln(w, "paper (full scale): Image1 total ~473s (~8 min), Image2 total ~1826s (~30 min), dominated by on-disk creation")
	return nil
}

// Measure builds both images, timing each phase.
func (t6 Table6) Measure(opts Options) ([]Table6Column, int, error) {
	scale := 1
	if opts.Quick {
		scale = 50
	}
	configs := []struct {
		label  string
		bytes  int64
		files  int
		dirs   int
		layout float64 // Image1 carries the fragmented-layout extra
	}{
		{"Image1", 4659 << 20 /* 4.55 GB */, 20000, 4000, 0.98},
		{"Image2", 12 << 30, 52000, 4000, 1},
	}
	var out []Table6Column
	for i, c := range configs {
		col, err := t6.measureOne(c.label, core.Config{
			FSSizeBytes: c.bytes / int64(scale),
			NumFiles:    c.files / scale,
			NumDirs:     c.dirs / scale,
			Seed:        opts.Seed,
			LayoutScore: c.layout,
		}, i == 0)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, col)
	}
	return out, scale, nil
}

// measureOne runs the product's metadata pass for cfg once, copies its
// phase timings, and times content generation and on-disk creation from
// it; with extras it also times the hybrid word model's content.
func (t6 Table6) measureOne(label string, cfg core.Config, extras bool) (Table6Column, error) {
	col := Table6Column{Label: label, FSBytes: cfg.FSSizeBytes, Files: cfg.NumFiles, Dirs: cfg.NumDirs, PhaseTimes: map[string]float64{}}
	g, err := core.NewGenerator(cfg)
	if err != nil {
		return col, err
	}
	m, err := g.ResolveMetadataContext(context.Background())
	if err != nil {
		return col, err
	}
	defer m.Close()
	report, err := m.Report()
	if err != nil {
		return col, err
	}
	// Copy the pipeline's own phase timings into the Table 6 wording. The
	// simulated disk's phase, which runs only below layout score 1, is the
	// fragmented layout's extra cost.
	for _, phase := range []string{"directory structure", "file sizes distribution", "popular extensions", "file and bytes with depth"} {
		col.PhaseTimes[phase] = report.PhaseTimes[phase]
	}
	col.LayoutExtra = report.PhaseTimes["on-disk layout"]

	// Content generation with the single-word model, counted without touching
	// the disk (the paper's "File content (Single-word)" row).
	seed := g.Config().Seed
	singleWord := content.NewRegistry(content.KindTextSingleWord)
	if col.PhaseTimes["file content (single-word)"], err = contentSeconds(m, singleWord, seed); err != nil {
		return col, err
	}
	if extras {
		if col.HybridExtra, err = contentSeconds(m, content.NewRegistry(content.KindTextModel), seed); err != nil {
			return col, err
		}
	}

	// On-disk creation: stream the records into the writer `impressions
	// -out` uses, under a scratch directory removed afterwards.
	root, err := os.MkdirTemp("", "impressions-table6-")
	if err != nil {
		return col, err
	}
	defer os.RemoveAll(root)
	start := time.Now()
	sink := fsimage.NewMaterializeSink(root, m.Tree(), fsimage.MaterializeOptions{Registry: singleWord, Seed: seed})
	if err = m.StreamRecords(sink); err == nil {
		err = sink.Close()
	}
	if err != nil {
		return col, err
	}
	col.PhaseTimes["on-disk file/dir creation"] = time.Since(start).Seconds()

	for _, v := range col.PhaseTimes {
		col.TotalTime += v
	}
	return col, nil
}

// contentSeconds times generating every file's content with registry, each
// from its own stream — the bytes the image holds under that policy —
// without touching the disk.
func contentSeconds(m *core.Metadata, registry *content.Registry, seed int64) (float64, error) {
	streams := fsimage.NewContentStreams(seed)
	var cw content.CountingWriter
	start := time.Now()
	err := m.StreamRecords(fsimage.NewTreeSink(func(f fsimage.File) error {
		return registry.ForExtension(f.Ext).Generate(&cw, f.Size, streams.File(f.ID))
	}))
	return time.Since(start).Seconds(), err
}
