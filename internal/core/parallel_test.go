package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// generateAt runs the pipeline for the given parallelism and seed.
func generateAt(t *testing.T, parallelism int, seed int64, mutate func(*Config)) *Result {
	t.Helper()
	cfg := Config{NumFiles: 3000, NumDirs: 600, Seed: seed, Parallelism: parallelism}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage(parallelism=%d): %v", parallelism, err)
	}
	return res
}

// TestParallelismDeterminism asserts the core guarantee of the sharded
// pipeline: for a fixed seed, every parallelism level produces the identical
// image — same spec, same file list, same tree counters, same histograms.
func TestParallelismDeterminism(t *testing.T) {
	seeds := []int64{1, 42, 977}
	levels := []int{1, 2, 8}
	variants := map[string]func(*Config){
		"default":  nil,
		"special":  func(c *Config) { c.UseSpecialDirectories = true },
		"deeptree": func(c *Config) { c.TreeShape = namespace.ShapeDeep },
	}
	for name, mutate := range variants {
		for _, seed := range seeds {
			ref := generateAt(t, 1, seed, mutate)
			for _, level := range levels[1:] {
				got := generateAt(t, level, seed, mutate)
				if !reflect.DeepEqual(ref.Image.Files, got.Image.Files) {
					t.Fatalf("%s seed %d: file list differs between parallelism 1 and %d", name, seed, level)
				}
				if !reflect.DeepEqual(ref.Image.Tree.Dirs, got.Image.Tree.Dirs) {
					t.Fatalf("%s seed %d: directory tree differs between parallelism 1 and %d", name, seed, level)
				}
				refSpec, gotSpec := ref.Image.Spec, got.Image.Spec
				if !reflect.DeepEqual(refSpec, gotSpec) {
					t.Fatalf("%s seed %d: spec differs between parallelism 1 and %d:\n%+v\nvs\n%+v",
						name, seed, level, refSpec, gotSpec)
				}
				statsCfg := fsimage.StatsConfig{CountBins: 32}
				a, b := ref.Image.Stats(statsCfg), got.Image.Stats(statsCfg)
				if !reflect.DeepEqual(a.FilesBySize().Counts, b.FilesBySize().Counts) {
					t.Fatalf("%s seed %d: files-by-size histogram differs at parallelism %d", name, seed, level)
				}
				if !reflect.DeepEqual(a.FilesByDepth().Counts, b.FilesByDepth().Counts) {
					t.Fatalf("%s seed %d: files-by-depth histogram differs at parallelism %d", name, seed, level)
				}
				if !reflect.DeepEqual(a.DirsByFileCount().Counts, b.DirsByFileCount().Counts) {
					t.Fatalf("%s seed %d: dirs-by-file-count histogram differs at parallelism %d", name, seed, level)
				}
			}
		}
	}
}

// TestMaterializeParallelismDeterminism materializes the same image at
// parallelism 1, 2, and 8 and asserts the written trees are byte-identical.
func TestMaterializeParallelismDeterminism(t *testing.T) {
	res := generateAt(t, 1, 7, func(c *Config) {
		c.NumFiles = 250
		c.NumDirs = 60
		// Keep content small so the test stays fast.
		c.FSSizeBytes = 250 * 2048
	})
	ref := hashTree(t, materializeAt(t, res.Image, 1))
	for _, level := range []int{2, 8} {
		got := hashTree(t, materializeAt(t, res.Image, level))
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("materialized tree differs between parallelism 1 and %d", level)
		}
	}
	if len(ref) != res.Image.FileCount() {
		t.Fatalf("expected %d materialized files, found %d", res.Image.FileCount(), len(ref))
	}
}

func materializeAt(t *testing.T, img *fsimage.Image, parallelism int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := img.Materialize(dir, fsimage.MaterializeOptions{
		Registry:    content.NewRegistry(content.KindDefault),
		Parallelism: parallelism,
	}); err != nil {
		t.Fatalf("Materialize(parallelism=%d): %v", parallelism, err)
	}
	return dir
}

// hashTree maps every file's root-relative path to the SHA-256 of its bytes.
func hashTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return out
}

func TestEffectiveParallelism(t *testing.T) {
	if got := effectiveParallelism(3); got != 3 {
		t.Fatalf("effectiveParallelism(3) = %d, want 3", got)
	}
	if got := effectiveParallelism(0); got < 1 {
		t.Fatalf("effectiveParallelism(0) = %d, want >= 1", got)
	}
}
