package fsimage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// buildTestImage constructs a small deterministic image for tests.
func buildTestImage(t testing.TB) *Image {
	t.Helper()
	rng := stats.NewRNG(1)
	tree := namespace.GenerateTree(rng, 20, namespace.ShapeGenerative)
	img := New(tree)
	img.Spec = Spec{Seed: 1, ContentKind: string(content.KindDefault), TreeShape: "generative"}
	placer := namespace.NewPlacer(tree, namespace.PlacerConfig{
		DepthModel:   stats.NewPoisson(6.49),
		DirFileModel: stats.NewInversePolynomial(2, 2.36, 4096),
	}, rng.Fork("placer"))
	sizes := []int64{100, 2048, 0, 65536, 4096, 123, 999999, 512, 3, 80000}
	exts := []string{"txt", "jpg", "", "dll", "htm", "cpp", "mp3", "gif", "h", "pdf"}
	for i, size := range sizes {
		p := placer.Place(size)
		img.AddFile(MakeFileName(i, exts[i]), exts[i], size, p.DirID, p.FileDepth)
	}
	return img
}

func TestImageBasics(t *testing.T) {
	img := buildTestImage(t)
	if img.FileCount() != 10 {
		t.Fatalf("file count %d", img.FileCount())
	}
	if img.DirCount() != 20 {
		t.Fatalf("dir count %d", img.DirCount())
	}
	var want int64
	for _, f := range img.Files {
		want += f.Size
	}
	if img.TotalBytes() != want {
		t.Errorf("TotalBytes %d, want %d", img.TotalBytes(), want)
	}
	if img.MeanFileSize() != float64(want)/10 {
		t.Errorf("MeanFileSize %g", img.MeanFileSize())
	}
	if err := img.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if img.FilesWithExtension("txt") != 1 {
		t.Errorf("FilesWithExtension(txt) = %d", img.FilesWithExtension("txt"))
	}
	if img.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestImageValidateCatchesCorruption(t *testing.T) {
	img := buildTestImage(t)
	img.Files[0].DirID = 9999
	if err := img.Validate(); err == nil {
		t.Error("expected validation error for bad DirID")
	}
	img = buildTestImage(t)
	img.Files[0].Size = -1
	if err := img.Validate(); err == nil {
		t.Error("expected validation error for negative size")
	}
	img = buildTestImage(t)
	img.Files[0].Depth = 99
	if err := img.Validate(); err == nil {
		t.Error("expected validation error for inconsistent depth")
	}
	img = buildTestImage(t)
	img.Files[0].Name = "a/b"
	if err := img.Validate(); err == nil {
		t.Error("expected validation error for a name containing a separator")
	}
}

func TestExtensionOfAndMakeFileName(t *testing.T) {
	if ExtensionOf("foo.TXT") != "txt" {
		t.Error("extension should be lower-cased")
	}
	if ExtensionOf("noext") != "" {
		t.Error("missing extension should be empty")
	}
	if got := MakeFileName(7, "jpg"); got != "file00000007.jpg" {
		t.Errorf("MakeFileName = %q", got)
	}
	if got := MakeFileName(7, ""); strings.Contains(got, ".") {
		t.Errorf("extensionless name %q should have no dot", got)
	}
	if got := MakeFileName(7, "null"); strings.Contains(got, ".") {
		t.Errorf("null-extension name %q should have no dot", got)
	}
}

func TestHistogramsConsistent(t *testing.T) {
	img := buildTestImage(t)
	if total := img.FilesBySizeHistogram(37).Total(); total != 10 {
		t.Errorf("files-by-size total %g", total)
	}
	if total := img.BytesBySizeHistogram(37).Total(); total != float64(img.TotalBytes()) {
		t.Errorf("bytes-by-size total %g, want %d", total, img.TotalBytes())
	}
	if total := img.FilesByDepthHistogram(17).Total(); total != 10 {
		t.Errorf("files-by-depth total %g", total)
	}
	if total := img.DirsByDepthHistogram(17).Total(); total != 20 {
		t.Errorf("dirs-by-depth total %g", total)
	}
	if total := img.DirsBySubdirHistogram(65).Total(); total != 20 {
		t.Errorf("dirs-by-subdir total %g", total)
	}
	if total := img.DirsByFileCountHistogram(65).Total(); total != 20 {
		t.Errorf("dirs-by-filecount total %g", total)
	}
	mean := img.MeanBytesByDepth(17)
	for d, v := range mean {
		if v < 0 {
			t.Errorf("negative mean bytes at depth %d", d)
		}
	}
}

func TestTopExtensions(t *testing.T) {
	img := buildTestImage(t)
	top := img.TopExtensions(3)
	if len(top) != 4 {
		t.Fatalf("expected 3 + others, got %d", len(top))
	}
	if top[len(top)-1].Ext != "others" {
		t.Error("last entry should be others")
	}
	var fileFrac float64
	for _, s := range top {
		fileFrac += s.FileFrac
	}
	if fileFrac < 0.999 || fileFrac > 1.001 {
		t.Errorf("extension fractions sum to %g", fileFrac)
	}
}

func TestExtensionFractions(t *testing.T) {
	img := buildTestImage(t)
	fracs := img.ExtensionFractions([]string{"txt", "jpg", "null"})
	if len(fracs) != 4 {
		t.Fatalf("got %d fractions", len(fracs))
	}
	if fracs[0] != 0.1 || fracs[1] != 0.1 || fracs[2] != 0.1 {
		t.Errorf("fractions %v, want 0.1 each", fracs[:3])
	}
	if fracs[3] != 0.7 {
		t.Errorf("others fraction %g, want 0.7", fracs[3])
	}
}

func TestMaterializeAndScanRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	root := t.TempDir()
	written, err := img.Materialize(root, MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if written != img.TotalBytes() {
		t.Errorf("materialize wrote %d bytes, want %d", written, img.TotalBytes())
	}
	// Spot-check one file's size and magic bytes.
	for _, f := range img.Files {
		if f.Ext == "jpg" {
			p := filepath.Join(root, filepath.FromSlash(img.FilePath(f)))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != f.Size {
				t.Errorf("materialized size %d, want %d", len(data), f.Size)
			}
			if f.Size >= 2 && (data[0] != 0xFF || data[1] != 0xD8) {
				t.Error("jpg file missing JPEG magic")
			}
		}
	}
	scanned, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if scanned.FileCount() != img.FileCount() {
		t.Errorf("scan found %d files, want %d", scanned.FileCount(), img.FileCount())
	}
	if scanned.TotalBytes() != img.TotalBytes() {
		t.Errorf("scan found %d bytes, want %d", scanned.TotalBytes(), img.TotalBytes())
	}
	// The scanned tree may omit empty directories' IDs ordering, but every
	// materialized directory must be present.
	if scanned.DirCount() != img.DirCount() {
		t.Errorf("scan found %d dirs, want %d", scanned.DirCount(), img.DirCount())
	}
	if err := scanned.Validate(); err != nil {
		t.Errorf("scanned image invalid: %v", err)
	}
}

func TestMaterializeMetadataOnly(t *testing.T) {
	img := buildTestImage(t)
	root := t.TempDir()
	if _, err := img.Materialize(root, MaterializeOptions{MetadataOnly: true}); err != nil {
		t.Fatal(err)
	}
	f := img.Files[3] // 64 KiB dll
	p := filepath.Join(root, filepath.FromSlash(img.FilePath(f)))
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != f.Size {
		t.Errorf("metadata-only file size %d, want %d", info.Size(), f.Size)
	}
}

func TestMaterializeDeterministicContent(t *testing.T) {
	img := buildTestImage(t)
	rootA, rootB := t.TempDir(), t.TempDir()
	if _, err := img.Materialize(rootA, MaterializeOptions{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := img.Materialize(rootB, MaterializeOptions{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	f := img.Files[0]
	a, err := os.ReadFile(filepath.Join(rootA, filepath.FromSlash(img.FilePath(f))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(rootB, filepath.FromSlash(img.FilePath(f))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same-seed materialization produced different content")
	}
}

// TestMaterializeAllocsPerFile pins the writer's per-file cost in
// allocations: 2 000 small files with their digests, which at 12 per file
// would mean an *os.File (and its finalizer) per file again.
func TestMaterializeAllocsPerFile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const nFiles, nDirs, maxAllocs = 2000, 100, 10
	tree := namespace.GenerateTree(stats.NewRNG(1), nDirs, namespace.ShapeGenerative)
	exts := []string{"txt", "jpg", "", "dll", "htm", "cpp", "mp3", "gif", "h", "pdf"}
	files := make([]File, nFiles)
	for i := range files {
		ext := exts[i%len(exts)]
		files[i] = File{ID: i, Name: MakeFileName(i, ext), Ext: ext, Size: 1100, DirID: i % nDirs}
	}
	dirs := make([]int, nDirs)
	for i := range dirs {
		dirs[i] = i
	}
	root := t.TempDir()
	opts := MaterializeOptions{Seed: 1, Parallelism: 1}
	if _, err := MaterializeShardRecords(root, tree, dirs, nil, opts); err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults(1) // the registry is built once, not per run
	opts.Digests = make([]string, nFiles)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if _, werr := MaterializeShardRecords(root, tree, nil, files, opts); werr != nil {
			err = werr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perFile := allocs / nFiles
	if perFile > maxAllocs {
		t.Errorf("%.2f allocations per written file, want at most %d", perFile, maxAllocs)
	}
	t.Logf("%.2f allocations per written file", perFile)
}

// TestScanSkipsIrregularEntries: symlinks (to files, directories, or
// nothing) and other non-regular entries must not be counted as files — a
// symlink's lstat size is the length of its target path, which would skew
// the size histograms of real scanned trees — but they must be counted in
// the scan result so the omission is visible.
func TestScanSkipsIrregularEntries(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for rel, size := range map[string]int{"real.txt": 100, "sub/other.log": 50} {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	links := map[string]string{
		"link-to-file":   filepath.Join(root, "real.txt"),
		"link-to-dir":    filepath.Join(root, "sub"),
		"dangling":       filepath.Join(root, "no-such-target"),
		"sub/inner-link": filepath.Join(root, "real.txt"),
	}
	for rel, target := range links {
		if err := os.Symlink(target, filepath.Join(root, filepath.FromSlash(rel))); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
	}
	res, err := ScanTree(root)
	if err != nil {
		t.Fatalf("ScanTree: %v", err)
	}
	if got := res.Image.FileCount(); got != 2 {
		t.Errorf("scan counted %d files, want 2 (symlinks must be skipped)", got)
	}
	if got := res.Image.TotalBytes(); got != 150 {
		t.Errorf("scan counted %d bytes, want 150", got)
	}
	if got := res.Image.DirCount(); got != 2 {
		t.Errorf("scan counted %d dirs, want 2 (a symlink to a dir is not a dir)", got)
	}
	if res.Irregular != len(links) {
		t.Errorf("scan reported %d irregular entries, want %d", res.Irregular, len(links))
	}
}

func TestScanErrors(t *testing.T) {
	if _, err := Scan("/nonexistent/path/xyz"); err == nil {
		t.Error("expected error for missing root")
	}
	f := filepath.Join(t.TempDir(), "file.txt")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(f); err == nil {
		t.Error("expected error when root is a file")
	}
}

func TestReportRendering(t *testing.T) {
	img := buildTestImage(t)
	rep := Report{
		Spec:        img.Spec,
		ActualFiles: img.FileCount(),
		ActualDirs:  img.DirCount(),
		ActualBytes: img.TotalBytes(),
		Accuracy:    map[string]float64{"file size by count": 0.04},
		PhaseTimes:  map[string]float64{"directory structure": 0.5},
	}
	rep.Spec.Distributions = map[string]string{"file size by count": "hybrid(...)"}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Impressions image report", "file size by count", "phase times"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	js, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte("actual_files")) {
		t.Error("JSON report missing fields")
	}
}
