package bench

import (
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/search"
)

// Fig7 reproduces Figure 7: the index-size-to-file-system-size ratio of the
// two desktop-search engines for images whose content is a single repeated
// word, word-model text, or binary data. The paper's point is that content
// changes not just the magnitude but the relative ordering of the engines:
// Beagle's index is larger for text, GDL's is larger for binary.
type Fig7 struct{}

// NewFig7 returns the Figure 7 experiment.
func NewFig7() Fig7 { return Fig7{} }

// Name implements Experiment.
func (Fig7) Name() string { return "fig7" }

// Title implements Experiment.
func (Fig7) Title() string {
	return "Figure 7: impact of file content on desktop-search index size"
}

// Fig7Cell is one engine x content measurement.
type Fig7Cell struct {
	Engine     string
	Content    string
	IndexRatio float64
	IndexBytes int64
	TimeMs     float64
}

// Run implements Experiment.
func (f Fig7) Run(w io.Writer, opts Options) error {
	cells, err := f.Measure(opts)
	if err != nil {
		return err
	}
	tb := newTable(w)
	tb.row("content", "engine", "index size / FS size", "index bytes", "index time (simulated s)")
	for _, c := range cells {
		tb.row(c.Content, c.Engine, fmt.Sprintf("%.4f", c.IndexRatio), c.IndexBytes, fmt.Sprintf("%.1f", c.TimeMs/1000))
	}
	tb.flush()
	fmt.Fprintln(w, "paper: Beagle > GDL for word-model text; GDL > Beagle for binary content")
	return nil
}

// Measure generates one image and indexes it with both engines under each
// content policy: a policy fills files and never touches metadata, so only
// the registry varies.
func (f Fig7) Measure(opts Options) ([]Fig7Cell, error) {
	files, dirs := 20000, 4000
	if opts.Quick {
		files, dirs = 1200, 240
	}
	res, err := core.GenerateImage(core.Config{NumFiles: files, NumDirs: dirs, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	kinds := []struct {
		label string
		kind  content.Kind
	}{
		{"Text (1 Word)", content.KindTextSingleWord},
		{"Text (Model)", content.KindTextModel},
		{"Binary", content.KindBinary},
	}
	engines := []struct {
		label  string
		policy search.Policy
	}{
		{"Beagle", search.BeaglePolicy()},
		{"GDL", search.GDLPolicy()},
	}

	var cells []Fig7Cell
	for _, k := range kinds {
		registry := content.NewRegistry(k.kind)
		for _, e := range engines {
			result := search.NewEngine(e.policy).Index(res.Image, registry, opts.Seed)
			cells = append(cells, Fig7Cell{
				Engine:     e.label,
				Content:    k.label,
				IndexRatio: result.IndexRatio(),
				IndexBytes: result.IndexBytes,
				TimeMs:     result.TimeMs,
			})
		}
	}
	return cells, nil
}
