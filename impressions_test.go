package impressions_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"impressions"
	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/search"
	"impressions/internal/workload"
)

func TestGenerateDefaultImage(t *testing.T) {
	res, err := impressions.Generate(impressions.Config{FSSizeBytes: 32 << 20, NumFiles: 300, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if res.Image.FileCount() != 300 {
		t.Errorf("file count %d", res.Image.FileCount())
	}
	relErr := math.Abs(float64(res.Image.TotalBytes()-32<<20)) / float64(32<<20)
	if relErr > 0.06 {
		t.Errorf("size error %.2f%%", relErr*100)
	}
	if res.Report.Spec.Seed != 1 {
		t.Error("report should carry the seed")
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	// Generate -> materialize -> scan -> compare: the full user workflow.
	res, err := impressions.Generate(impressions.Config{NumFiles: 200, NumDirs: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	written, err := res.Image.Materialize(root, impressions.MaterializeOptions{MetadataOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if written != res.Image.TotalBytes() {
		t.Errorf("materialized %d bytes, image holds %d", written, res.Image.TotalBytes())
	}
	scanned, err := impressions.ScanDirectory(root)
	if err != nil {
		t.Fatal(err)
	}
	if scanned.FileCount() != res.Image.FileCount() {
		t.Errorf("scan found %d files, want %d", scanned.FileCount(), res.Image.FileCount())
	}
	if scanned.TotalBytes() != res.Image.TotalBytes() {
		t.Errorf("scan found %d bytes, want %d", scanned.TotalBytes(), res.Image.TotalBytes())
	}
}

func TestMeasureAccuracyExported(t *testing.T) {
	res, err := impressions.Generate(impressions.Config{NumFiles: 3000, NumDirs: 600, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	acc := impressions.MeasureAccuracy(res.Image, false)
	if acc.FileSizeByCount <= 0 || acc.FileSizeByCount > 0.3 {
		t.Errorf("files-by-size MDCC %.3f outside expected band", acc.FileSizeByCount)
	}
	if acc.FilesWithDepth <= 0 || acc.FilesWithDepth > 0.3 {
		t.Errorf("files-by-depth MDCC %.3f outside expected band", acc.FilesWithDepth)
	}
}

func TestDefaultParameterTableExported(t *testing.T) {
	table := impressions.DefaultParameterTable()
	if len(table) < 8 {
		t.Errorf("expected the full Table 2 listing, got %d entries", len(table))
	}
	if table["file size by count"] == "" {
		t.Error("missing file-size default")
	}
}

func TestEndToEndFindAndSearch(t *testing.T) {
	// Integration: generated image -> simulated disk -> find workload and a
	// desktop-search crawl all operate on the same image.
	res, err := impressions.Generate(impressions.Config{
		NumFiles: 500, NumDirs: 100, Seed: 11, LayoutScore: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disk == nil {
		t.Fatal("expected simulated disk")
	}
	find := workload.Find(res.Image, workload.FindConfig{})
	if find.DirsVisited != res.Image.DirCount() {
		t.Errorf("find visited %d dirs", find.DirsVisited)
	}
	idx := search.NewEngine(search.BeaglePolicy()).Index(res.Image, content.NewRegistry(content.KindDefault), 11)
	if idx.IndexedFiles+idx.AttributeOnlyFiles != res.Image.FileCount() {
		t.Error("search crawl missed files")
	}
}

func TestMaterializedContentMatchesExtensions(t *testing.T) {
	res, err := impressions.Generate(impressions.Config{NumFiles: 120, NumDirs: 25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if _, err := res.Image.Materialize(root, impressions.MaterializeOptions{}); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range res.Image.Files {
		if f.Ext != "jpg" || f.Size < 4 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(string(fsimage.AppendFilePath(nil, res.Image.Tree, f)))))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 0xFF || data[1] != 0xD8 {
			t.Errorf("%s does not start with a JPEG header", f.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no jpg files in this image")
	}
}
