package workload

import (
	"testing"

	"impressions/internal/core"
	"impressions/internal/disk"
	"impressions/internal/namespace"
)

// generate builds a small image with the given tree shape and layout score.
func generate(t *testing.T, shape namespace.TreeShape, layout float64) *core.Result {
	t.Helper()
	// The file-system size is left to be derived from the file count so the
	// constraint resolver converges immediately; these tests exercise the
	// workload simulators, not constraint resolution.
	cfg := core.Config{
		NumFiles:    2000,
		NumDirs:     101,
		TreeShape:   shape,
		LayoutScore: layout,
		Seed:        77,
	}
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	return res
}

func TestFindVisitsEverything(t *testing.T) {
	res := generate(t, namespace.ShapeGenerative, 1.0)
	out := Find(res.Image, FindConfig{})
	if out.DirsVisited != res.Image.DirCount() {
		t.Errorf("visited %d dirs, want %d", out.DirsVisited, res.Image.DirCount())
	}
	wantEntries := res.Image.FileCount() + res.Image.DirCount() - 1
	if out.EntriesScanned != wantEntries {
		t.Errorf("scanned %d entries, want %d", out.EntriesScanned, wantEntries)
	}
	if out.TimeMs <= 0 {
		t.Error("find time should be positive")
	}
}

func TestFindCachedMuchFaster(t *testing.T) {
	res := generate(t, namespace.ShapeGenerative, 1.0)
	cold := Find(res.Image, FindConfig{})
	warm := Find(res.Image, FindConfig{Cached: true})
	if warm.TimeMs >= cold.TimeMs/5 {
		t.Errorf("cached find (%.2fms) should be much faster than cold (%.2fms)", warm.TimeMs, cold.TimeMs)
	}
	if warm.Seeks != 0 {
		t.Errorf("cached find charged %g seeks", warm.Seeks)
	}
}

func TestFindTreeDepthMatters(t *testing.T) {
	// Figure 1: deep trees are substantially slower than flat trees for the
	// same directory and file counts; the generative tree sits in between.
	flat := Find(generate(t, namespace.ShapeFlat, 1.0).Image, FindConfig{})
	deep := Find(generate(t, namespace.ShapeDeep, 1.0).Image, FindConfig{})
	orig := Find(generate(t, namespace.ShapeGenerative, 1.0).Image, FindConfig{})
	if deep.TimeMs <= flat.TimeMs {
		t.Errorf("deep tree find (%.2fms) should be slower than flat (%.2fms)", deep.TimeMs, flat.TimeMs)
	}
	if deep.TimeMs < 2*flat.TimeMs {
		t.Errorf("deep/flat ratio %.2f; the paper reports a ~3x spread", deep.TimeMs/flat.TimeMs)
	}
	if orig.TimeMs < flat.TimeMs || orig.TimeMs > deep.TimeMs {
		t.Errorf("generative tree (%.2fms) should fall between flat (%.2fms) and deep (%.2fms)",
			orig.TimeMs, flat.TimeMs, deep.TimeMs)
	}
}

func TestFindFragmentationMatters(t *testing.T) {
	res := generate(t, namespace.ShapeGenerative, 1.0)
	clean := Find(res.Image, FindConfig{MetadataLayoutScore: 1.0})
	fragmented := Find(res.Image, FindConfig{MetadataLayoutScore: 0.95})
	if fragmented.TimeMs <= clean.TimeMs {
		t.Errorf("fragmented find (%.2fms) should be slower than clean (%.2fms)",
			fragmented.TimeMs, clean.TimeMs)
	}
	ratio := fragmented.TimeMs / clean.TimeMs
	if ratio < 1.1 || ratio > 2.5 {
		t.Errorf("fragmentation overhead ratio %.2f outside the plausible band around the paper's ~1.35", ratio)
	}
}

func TestFindWithoutDiskStillWorks(t *testing.T) {
	cfg := core.Config{NumFiles: 100, NumDirs: 20, FSSizeBytes: 8 << 20, Seed: 5}
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Find(res.Image, FindConfig{Cost: disk.DefaultCostModel()})
	if out.DirsVisited != res.Image.DirCount() {
		t.Errorf("visited %d dirs", out.DirsVisited)
	}
}
