package core

import (
	"context"
	"testing"

	"impressions/internal/content"
	"impressions/internal/fsimage"
)

// recordsHash is the chunk chain hash of an image's record stream, the value
// that seals a plan over it.
func recordsHash(t *testing.T, img *fsimage.Image) string {
	t.Helper()
	enc := fsimage.NewChunkEncoder(0, func(*fsimage.Chunk) error { return nil })
	if err := img.StreamRecords(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return enc.ChainHash()
}

// TestGenerateStreamMatchesRetained is the golden streaming-vs-retained
// equivalence: for several seeds at parallelism 1, 2 and 8, one streamed
// generation pass, collected through a TreeSink, must reproduce — byte for
// byte — the image and digest of the classic Generate path, and its records
// replayed into a stats accumulator and a streaming materializer the
// statistics and the on-disk tree.
func TestGenerateStreamMatchesRetained(t *testing.T) {
	for _, seed := range []int64{7, 20090225} {
		for _, par := range []int{1, 2, 8} {
			cfg := Config{NumFiles: 500, NumDirs: 100, FSSizeBytes: 500 * 2048, Seed: seed, Parallelism: par}

			res, err := GenerateImage(cfg)
			if err != nil {
				t.Fatalf("seed %d P%d: Generate: %v", seed, par, err)
			}
			mopts := fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: seed, Parallelism: par}
			wantDigest, err := res.Image.Digest(mopts)
			if err != nil {
				t.Fatalf("Digest: %v", err)
			}
			retainedRoot := t.TempDir()
			if _, err := res.Image.Materialize(retainedRoot, mopts); err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			wantTree, err := fsimage.HashTree(retainedRoot)
			if err != nil {
				t.Fatal(err)
			}

			// One streamed pass, its records collected.
			gen, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			streamed := &fsimage.Image{Spec: res.Image.Spec}
			collect := fsimage.NewTreeSink(func(f fsimage.File) error { streamed.Files = append(streamed.Files, f); return nil })
			report, err := gen.GenerateStream(collect)
			if err != nil {
				t.Fatalf("seed %d P%d: GenerateStream: %v", seed, par, err)
			}
			streamed.Tree = collect.Tree()
			if err := streamed.Validate(); err != nil {
				t.Fatalf("streamed image: %v", err)
			}
			statsSink := fsimage.NewImageStats(fsimage.StatsConfig{SizeMaxExp: 34, DepthBins: 16, CountBins: 32})
			if err := streamed.StreamRecords(statsSink); err != nil {
				t.Fatal(err)
			}
			streamRoot := t.TempDir()
			matSink := fsimage.NewMaterializeSink(streamRoot, streamed.Tree, fsimage.MaterializeOptions{
				Registry: content.NewRegistry(content.KindDefault), Seed: seed})
			if err := streamed.StreamRecords(matSink); err != nil {
				t.Fatalf("seed %d P%d: stream materialize: %v", seed, par, err)
			}
			if err := matSink.Close(); err != nil {
				t.Fatalf("seed %d P%d: closing the materializer: %v", seed, par, err)
			}

			// Spec and report totals.
			if report.Spec.Seed != res.Report.Spec.Seed || report.Spec.NumFiles != res.Report.Spec.NumFiles ||
				report.Spec.TreeShape != res.Report.Spec.TreeShape || report.Spec.ContentKind != res.Report.Spec.ContentKind {
				t.Errorf("seed %d P%d: specs diverge: %+v vs %+v", seed, par, report.Spec, res.Report.Spec)
			}
			if report.ActualFiles != res.Report.ActualFiles || report.ActualDirs != res.Report.ActualDirs ||
				report.ActualBytes != res.Report.ActualBytes || report.SumError != res.Report.SumError {
				t.Errorf("seed %d P%d: report totals diverge: %+v vs %+v", seed, par, report, res.Report)
			}

			// The collected image must hold the identical records.
			if recordsHash(t, res.Image) != recordsHash(t, streamed) {
				t.Errorf("seed %d P%d: streamed image holds different records", seed, par)
			}

			// Digest of the streamed image equals the retained digest.
			gotDigest, err := streamed.Digest(mopts)
			if err != nil {
				t.Fatal(err)
			}
			if gotDigest != wantDigest {
				t.Errorf("seed %d P%d: streamed digest %s != retained %s", seed, par, gotDigest, wantDigest)
			}

			// Streaming statistics equal the retained image's.
			retained := res.Image.Stats(fsimage.StatsConfig{SizeMaxExp: 34, DepthBins: 16, CountBins: 32})
			if statsSink.FileCount() != res.Image.FileCount() || statsSink.TotalBytes() != res.Image.TotalBytes() {
				t.Errorf("seed %d P%d: stats totals diverge", seed, par)
			}
			wantHist := retained.FilesBySize().Counts
			gotHist := statsSink.FilesBySize().Counts
			for i := range wantHist {
				if wantHist[i] != gotHist[i] {
					t.Errorf("seed %d P%d: files-by-size bin %d: %g vs %g", seed, par, i, gotHist[i], wantHist[i])
					break
				}
			}
			wantDepth := retained.FilesByDepth().Counts
			gotDepth := statsSink.FilesByDepth().Counts
			for i := range wantDepth {
				if wantDepth[i] != gotDepth[i] {
					t.Errorf("seed %d P%d: files-by-depth bin %d: %g vs %g", seed, par, i, gotDepth[i], wantDepth[i])
					break
				}
			}

			// The streaming materializer wrote the identical tree.
			gotTree, err := fsimage.HashTree(streamRoot)
			if err != nil {
				t.Fatal(err)
			}
			if gotTree != wantTree {
				t.Errorf("seed %d P%d: streamed tree %s != retained %s", seed, par, gotTree, wantTree)
			}
		}
	}
}

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
