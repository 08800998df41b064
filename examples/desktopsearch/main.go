// Desktop-search case study (§4 of the paper): generate images whose content
// policy varies while every other parameter is held constant, index them with
// the two simulated desktop-search engines (BeagleSim and GDLSim), and report
// index size and the files each engine's built-in assumptions leave
// unindexed.
//
// Run with:
//
//	go run ./examples/desktopsearch
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"impressions"
	"impressions/internal/content"
	"impressions/internal/search"
)

func main() {
	contents := []struct {
		label string
		kind  content.Kind
	}{
		{"Text (1 Word)", impressions.ContentTextSingleWord},
		{"Text (Model)", impressions.ContentTextModel},
		{"Binary", impressions.ContentBinary},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "content\tengine\tindexed files\tattr-only\tindex/FS size")

	// One image for every content policy: a policy fills the files and never
	// touches the structure, so only the content changes — the paper's point
	// about controlled single-parameter variation.
	cfg := impressions.Config{NumFiles: 1000, NumDirs: 200, Seed: 42}
	res, err := impressions.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range contents {
		registry := content.NewRegistry(c.kind)
		for _, engine := range []struct {
			name   string
			policy search.Policy
		}{
			{"Beagle", search.BeaglePolicy()},
			{"GDL", search.GDLPolicy()},
		} {
			out := search.NewEngine(engine.policy).Index(res.Image, registry, cfg.Seed)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\n",
				c.label, engine.name, out.IndexedFiles, out.AttributeOnlyFiles, out.IndexRatio())
		}
	}
	tw.Flush()

	// Debunk the documented cutoffs against a representative default image.
	res, err = impressions.Generate(impressions.Config{NumFiles: 4000, NumDirs: 800, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	gdl := search.GDLPolicy()
	deep, deepBytes := 0, int64(0)
	var totalBytes int64
	for _, f := range res.Image.Files {
		totalBytes += f.Size
		if f.Depth > gdl.MaxDepth {
			deep++
			deepBytes += f.Size
		}
	}
	fmt.Printf("\nGDL indexes only files < %d directories deep: that skips %.1f%% of files and %.1f%% of bytes in this image\n",
		gdl.MaxDepth,
		100*float64(deep)/float64(res.Image.FileCount()),
		100*float64(deepBytes)/float64(totalBytes))
}
