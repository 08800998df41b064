package core

import (
	"context"
	"testing"

	"impressions/internal/fsimage"
)

// TestGenerateStreamSimulatesDisk: the layout simulation reads the columns,
// heap or spilled, so the streamed path and Metadata.Report report the score
// the retained path does.
func TestGenerateStreamSimulatesDisk(t *testing.T) {
	for _, layout := range []float64{0.7, 0.3} {
		cfg := Config{NumFiles: 300, NumDirs: 30, FSSizeBytes: 300 * 8192, LayoutScore: layout, Seed: 9}
		res, err := GenerateImage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Report.AchievedLayoutScore
		if want >= 1 {
			t.Fatalf("layout %.1f: Generate achieved %v", layout, want)
		}
		for _, spill := range []string{"", t.TempDir()} {
			cfg.SpillDir = spill
			gen, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := gen.GenerateStream(fsimage.NewTreeSink(nil))
			if err != nil {
				t.Fatalf("layout %.1f spill %q: GenerateStream: %v", layout, spill, err)
			}
			if report.AchievedLayoutScore != want {
				t.Errorf("layout %.1f spill %q: streamed AchievedLayoutScore %v, retained %v", layout, spill, report.AchievedLayoutScore, want)
			}
			m, err := gen.ResolveMetadataContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			metaReport, err := m.Report()
			m.Close()
			if err != nil {
				t.Fatalf("layout %.1f spill %q: Report: %v", layout, spill, err)
			}
			if metaReport.AchievedLayoutScore != want {
				t.Errorf("layout %.1f spill %q: Metadata.Report achieved %v, retained %v", layout, spill, metaReport.AchievedLayoutScore, want)
			}
		}
	}
}
