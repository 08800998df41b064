package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"impressions/internal/content"
	"impressions/internal/dataset"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

func TestGenerateDefaultsSmallImage(t *testing.T) {
	cfg := Config{FSSizeBytes: 64 << 20, NumFiles: 500, NumDirs: 100, Seed: 42}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	img := res.Image
	if img.FileCount() != 500 {
		t.Errorf("file count = %d, want 500", img.FileCount())
	}
	if img.DirCount() < 100 {
		t.Errorf("dir count = %d, want >= 100", img.DirCount())
	}
	if err := img.Validate(); err != nil {
		t.Errorf("generated image invalid: %v", err)
	}
	total := img.TotalBytes()
	target := int64(64 << 20)
	relErr := math.Abs(float64(total-target)) / float64(target)
	if relErr > 0.06 {
		t.Errorf("total bytes %d misses target %d by %.1f%% (beta 5%%)", total, target, relErr*100)
	}
}

func TestGenerateReproducible(t *testing.T) {
	cfg := Config{FSSizeBytes: 16 << 20, NumFiles: 200, NumDirs: 40, Seed: 7}
	a, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("first generation: %v", err)
	}
	b, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("second generation: %v", err)
	}
	if a.Image.FileCount() != b.Image.FileCount() {
		t.Fatalf("file counts differ: %d vs %d", a.Image.FileCount(), b.Image.FileCount())
	}
	for i := range a.Image.Files {
		fa, fb := a.Image.Files[i], b.Image.Files[i]
		if fa != fb {
			t.Fatalf("file %d differs between identical-seed runs: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Image.DirCount() != b.Image.DirCount() {
		t.Fatalf("dir counts differ: %d vs %d", a.Image.DirCount(), b.Image.DirCount())
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	base := Config{FSSizeBytes: 16 << 20, NumFiles: 200, NumDirs: 40}
	c1 := base
	c1.Seed = 1
	c2 := base
	c2.Seed = 2
	a, err := GenerateImage(c1)
	if err != nil {
		t.Fatalf("seed 1: %v", err)
	}
	b, err := GenerateImage(c2)
	if err != nil {
		t.Fatalf("seed 2: %v", err)
	}
	same := true
	for i := range a.Image.Files {
		if i >= len(b.Image.Files) || a.Image.Files[i].Size != b.Image.Files[i].Size {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical file size sequences")
	}
}

func TestGenerateDeriveCounts(t *testing.T) {
	cfg := Config{FSSizeBytes: 256 << 20, Seed: 11}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	norm := gen.Config()
	if norm.NumFiles <= 0 {
		t.Fatalf("NumFiles not derived: %d", norm.NumFiles)
	}
	if norm.NumDirs <= 0 {
		t.Fatalf("NumDirs not derived: %d", norm.NumDirs)
	}
	if norm.NumDirs > norm.NumFiles {
		t.Errorf("derived more dirs (%d) than files (%d)", norm.NumDirs, norm.NumFiles)
	}
}

func TestGenerateEmptyConfigFails(t *testing.T) {
	if _, err := GenerateImage(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
}

// TestNewGeneratorRejectsCountsPastInt32: directory IDs and file indices are
// held as int32, so a count past that — given, or derived from a size — is
// an invalid spec, said before any work.
func TestNewGeneratorRejectsCountsPastInt32(t *testing.T) {
	cases := map[string]Config{"files derived": {FSSizeBytes: 1 << 62}}
	if math.MaxInt > math.MaxInt32 { // a 32-bit int cannot hold such a count
		past := int64(math.MaxInt32) + 1
		cases["files"] = Config{NumFiles: int(past), NumDirs: 10}
		cases["dirs"] = Config{NumFiles: 10, NumDirs: int(past)}
	}
	for name, cfg := range cases {
		if _, err := NewGenerator(cfg); !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("%s: got %v, want ErrInvalidSpec", name, err)
		}
	}
	if _, err := NewGenerator(Config{NumFiles: math.MaxInt32, NumDirs: math.MaxInt32}); err != nil {
		t.Errorf("the largest image: %v", err)
	}
}

// TestValidateRejectsNonFinite: NaN passes a pair of range comparisons, and
// Go leaves a float-to-integer conversion out of range implementation-
// defined, so a non-finite score or beta, and a size or file count derived
// past its integer type, are invalid specs, said before any work.
func TestValidateRejectsNonFinite(t *testing.T) {
	huge := stats.NewLognormal(1e3, 1) // a mean past any int64
	cases := map[string]Config{
		"layout NaN":        {NumFiles: 10, LayoutScore: math.NaN()},
		"beta NaN":          {NumFiles: 10, Beta: math.NaN()},
		"beta -Inf":         {NumFiles: 10, Beta: math.Inf(-1)},
		"size derived past": {NumFiles: 100, FileSizeDist: huge},
		"size derived Inf":  {NumFiles: 100, FileSizeDist: stats.NewLognormal(math.Inf(1), 1)},
		"files derived NaN": {FSSizeBytes: 1 << 20, FileSizeDist: stats.NewPareto(1, 1024)},
		"size derived NaN":  {NumFiles: 100, FileSizeDist: stats.NewPareto(0.5, 1024)},
		"size derived 2^64": {NumFiles: 4, FileSizeDist: stats.NewLognormal(math.Log(1<<62)-0.5, 1)},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("%s: got %v, want ErrInvalidSpec", name, err)
		}
	}
	// A huge model is fine once the size is given: no size is derived.
	if err := (Config{NumFiles: 100, FSSizeBytes: 1 << 30, FileSizeDist: huge}).Validate(); err != nil {
		t.Errorf("given size: %v", err)
	}
}

// TestValidateRejectsUnknownContentKind: content.NewRegistry builds the
// default policy for any string, so a misspelt kind would generate default
// content under the other name. The empty kind is the default, said short.
func TestValidateRejectsUnknownContentKind(t *testing.T) {
	for _, kind := range []content.Kind{"", content.KindDefault, content.KindTextSingleWord, content.KindTextModel, content.KindImage, content.KindBinary, content.KindZero} {
		if err := (Config{NumFiles: 10, ContentKind: kind}).Validate(); err != nil {
			t.Errorf("content kind %q: %v", kind, err)
		}
	}
	for _, kind := range []content.Kind{"txet-model", "bogus", "Default", " default"} {
		if _, err := NewGenerator(Config{NumFiles: 10, ContentKind: kind}); !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("content kind %q: got %v, want ErrInvalidSpec", kind, err)
		}
	}
}

func TestGenerateTreeShapes(t *testing.T) {
	for _, shape := range []namespace.TreeShape{namespace.ShapeFlat, namespace.ShapeDeep} {
		cfg := Config{NumFiles: 300, NumDirs: 101, FSSizeBytes: 8 << 20, TreeShape: shape, Seed: 5}
		res, err := GenerateImage(cfg)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		tree := res.Image.Tree
		switch shape {
		case namespace.ShapeFlat:
			if tree.MaxDepth() != 1 {
				t.Errorf("flat tree max depth = %d, want 1", tree.MaxDepth())
			}
		case namespace.ShapeDeep:
			if tree.MaxDepth() != 100 {
				t.Errorf("deep tree max depth = %d, want 100", tree.MaxDepth())
			}
		}
	}
}

func TestGenerateWithLayoutScore(t *testing.T) {
	cfg := Config{NumFiles: 400, NumDirs: 80, FSSizeBytes: 32 << 20, LayoutScore: 0.7, Seed: 9}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	if res.Disk == nil {
		t.Fatal("expected simulated disk when layout score < 1")
	}
	score := res.Report.AchievedLayoutScore
	if score >= 0.999 {
		t.Errorf("achieved layout score %.3f; expected fragmentation below 1.0", score)
	}
	if score < 0 || score > 1 {
		t.Errorf("layout score %.3f outside [0,1]", score)
	}
}

func TestGeneratePerfectLayout(t *testing.T) {
	cfg := Config{NumFiles: 200, NumDirs: 40, FSSizeBytes: 16 << 20, SimulateDisk: true, Seed: 9}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	if res.Report.AchievedLayoutScore < 0.99 {
		t.Errorf("perfect-layout run scored %.3f, want ~1.0", res.Report.AchievedLayoutScore)
	}
}

func TestGenerateSpecialDirectories(t *testing.T) {
	cfg := Config{NumFiles: 2000, NumDirs: 300, FSSizeBytes: 512 << 20,
		UseSpecialDirectories: true, Seed: 3}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	specials := res.Image.Tree.SpecialDirs()
	if len(specials) == 0 {
		t.Fatal("no special directories marked")
	}
	// Special directories should hold a disproportionate share of files.
	var specialFiles int
	for _, id := range specials {
		specialFiles += res.Image.Tree.Dirs[id].FileCount
	}
	fracSpecial := float64(specialFiles) / float64(res.Image.FileCount())
	fracDirs := float64(len(specials)) / float64(res.Image.DirCount())
	if fracSpecial <= fracDirs {
		t.Errorf("special dirs hold %.3f of files but are %.3f of dirs; expected a placement bias",
			fracSpecial, fracDirs)
	}
}

// TestGenerationLeavesDatasetCurvesUnbuilt: generation reads only the
// analytic parts of its dataset, so after a full generation, special
// directories included, the first curve accessor still builds the Monte
// Carlo curves — a 20,000-directory tree among them, thousands of
// allocations — and the second only copies a histogram.
func TestGenerationLeavesDatasetCurvesUnbuilt(t *testing.T) {
	ds := dataset.New(20090225)
	cfg := Config{FSSizeBytes: 3000 << 12, NumFiles: 3000, NumDirs: 300, Seed: 7, UseSpecialDirectories: true, Dataset: ds}
	if _, err := GenerateImage(cfg); err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	mallocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds.FilesBySize()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if first, second := mallocs(), mallocs(); first < 1000 || second > 100 {
		t.Errorf("first curve accessor after a generation made %d allocations, the second %d: want the first to build the curves (1000 or more) and the second to copy (100 or fewer)", first, second)
	}
}

func TestMeasureAccuracyReasonable(t *testing.T) {
	cfg := Config{FSSizeBytes: 512 << 20, NumFiles: 4000, NumDirs: 800, Seed: 13}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	res, err := gen.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc := MeasureAccuracy(res.Image, gen.Dataset(), false)
	checks := map[string]float64{
		"dirs with depth":    acc.DirsWithDepth,
		"dirs with subdirs":  acc.DirsWithSubdirs,
		"file size by count": acc.FileSizeByCount,
		"files with depth":   acc.FilesWithDepth,
	}
	for name, v := range checks {
		if v < 0 || v > 1 {
			t.Errorf("%s MDCC %.3f outside [0,1]", name, v)
		}
		if v > 0.25 {
			t.Errorf("%s MDCC %.3f is too large; generated image does not follow the desired curve", name, v)
		}
	}
}

func TestConfigDistributionTable(t *testing.T) {
	cfg := Config{FSSizeBytes: 1 << 30}
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	table := norm.DistributionTable()
	for _, key := range []string{"file size by count", "file count with depth", "directory size (files)"} {
		if table[key] == "" {
			t.Errorf("distribution table missing %q", key)
		}
	}
}

func TestGenerateContentKindsRecorded(t *testing.T) {
	cfg := Config{NumFiles: 50, FSSizeBytes: 4 << 20, ContentKind: content.KindBinary, Seed: 21}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	if res.Image.Spec.ContentKind != string(content.KindBinary) {
		t.Errorf("spec content kind = %q, want %q", res.Image.Spec.ContentKind, content.KindBinary)
	}
	if res.Report.Spec.Seed != 21 {
		t.Errorf("report seed = %d, want 21", res.Report.Spec.Seed)
	}
}
