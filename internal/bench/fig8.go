package bench

import (
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/search"
)

// Fig8 reproduces Figure 8: the relative index time and relative index size
// of four Beagle build variants (Original, TextCache, DisDir, DisFilter)
// across four content policies (Default, Text, Image, Binary), everything
// normalized to the Original variant on the Default content image. This is
// the paper's example of reproducible benchmarking: because the image is
// fully specified by Impressions parameters, different developers' variants
// can be compared meaningfully.
type Fig8 struct{}

// NewFig8 returns the Figure 8 experiment.
func NewFig8() Fig8 { return Fig8{} }

// Name implements Experiment.
func (Fig8) Name() string { return "fig8" }

// Title implements Experiment.
func (Fig8) Title() string {
	return "Figure 8: Beagle variants, relative index time and size per content type"
}

// Fig8Cell is one variant x content measurement.
type Fig8Cell struct {
	Variant      search.Variant
	Content      string
	RelativeTime float64
	RelativeSize float64
}

// Run implements Experiment.
func (f Fig8) Run(w io.Writer, opts Options) error {
	cells, err := f.Measure(opts)
	if err != nil {
		return err
	}
	variants := []search.Variant{search.VariantOriginal, search.VariantTextCache, search.VariantDisDir, search.VariantDisFilter}
	contents := []string{"Default", "Text", "Image", "Binary"}

	lookup := map[string]Fig8Cell{}
	for _, c := range cells {
		lookup[string(c.Variant)+"/"+c.Content] = c
	}
	for _, metric := range []string{"time", "size"} {
		fmt.Fprintf(w, "Beagle: relative index %s (normalized to Original/Default)\n", metric)
		tb := newTable(w)
		header := []interface{}{"variant"}
		for _, c := range contents {
			header = append(header, c)
		}
		tb.row(header...)
		for _, v := range variants {
			cellsRow := []interface{}{string(v)}
			for _, c := range contents {
				cell := lookup[string(v)+"/"+c]
				val := cell.RelativeTime
				if metric == "size" {
					val = cell.RelativeSize
				}
				cellsRow = append(cellsRow, fmt.Sprintf("%.3f", val))
			}
			tb.row(cellsRow...)
		}
		tb.flush()
	}
	fmt.Fprintln(w, "paper: TextCache costs extra time and space; DisDir slightly reduces both; DisFilter collapses both")
	return nil
}

// Measure generates one image and indexes it with every variant under each
// content policy; only the registry varies between the policies.
func (f Fig8) Measure(opts Options) ([]Fig8Cell, error) {
	files, dirs := 20000, 4000
	if opts.Quick {
		files, dirs = 800, 160
	}
	res, err := core.GenerateImage(core.Config{NumFiles: files, NumDirs: dirs, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	contents := []struct {
		label string
		kind  content.Kind
	}{
		{"Default", content.KindDefault},
		{"Text", content.KindTextModel},
		{"Image", content.KindImage},
		{"Binary", content.KindBinary},
	}
	variants := []search.Variant{search.VariantOriginal, search.VariantTextCache, search.VariantDisDir, search.VariantDisFilter}

	type raw struct {
		variant search.Variant
		content string
		timeMs  float64
		bytes   int64
	}
	var raws []raw
	for _, c := range contents {
		registry := content.NewRegistry(c.kind)
		for _, v := range variants {
			engine := search.NewEngineVariant(search.BeaglePolicy(), v)
			out := engine.Index(res.Image, registry, opts.Seed)
			raws = append(raws, raw{variant: v, content: c.label, timeMs: out.TimeMs, bytes: out.IndexBytes})
		}
	}

	// Normalize to Original/Default.
	var baseTime float64
	var baseBytes int64
	for _, r := range raws {
		if r.variant == search.VariantOriginal && r.content == "Default" {
			baseTime, baseBytes = r.timeMs, r.bytes
		}
	}
	if baseTime == 0 || baseBytes == 0 {
		return nil, fmt.Errorf("bench: missing Original/Default baseline")
	}
	var cells []Fig8Cell
	for _, r := range raws {
		cells = append(cells, Fig8Cell{
			Variant:      r.variant,
			Content:      r.content,
			RelativeTime: r.timeMs / baseTime,
			RelativeSize: float64(r.bytes) / float64(baseBytes),
		})
	}
	return cells, nil
}
