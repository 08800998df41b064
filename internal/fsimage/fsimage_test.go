package fsimage

import (
	"bytes"
	"cmp"
	"errors"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"impressions/internal/content"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// filePath is the slash-separated path of a file under the image root.
func filePath(img *Image, f File) string { return string(new(FilePath).Append(img.Tree, f)) }

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
	placed := make([]namespace.Placement, len(sizes))
	for i, size := range sizes {
		placed[i] = placer.Place(size)
	}
	// Number the files directory-major, as the canonical order is.
	order := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(placed[a].DirID, placed[b].DirID) })
	for i, k := range order {
		img.AddFile(MakeFileName(i, exts[k]), exts[k], sizes[k], placed[k].DirID, placed[k].FileDepth)
	}
	return img
}

// TestFilePathFollowsDirectoryAndTree: one FilePath renders every file of
// two images, alternating between them and between directories, root files
// included, as the path joined from the tree's directory path and the name.
func TestFilePathFollowsDirectoryAndTree(t *testing.T) {
	a, b := buildTestImage(t), batchTestImage(t, 40)
	var p FilePath
	for i := range 40 {
		for _, img := range []*Image{a, b, b} {
			f := img.Files[i%len(img.Files)]
			want := path.Join(img.Tree.Path(f.DirID), f.Name)
			if got := string(p.Append(img.Tree, f)); got != want {
				t.Fatalf("file %d of a %d-file image: %q, want %q", f.ID, len(img.Files), got, want)
			}
		}
	}
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
	if img.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestImageValidateCatchesCorruption: Validate holds a retained image to the
// stream rules TreeSink enforces, so every damage is ErrManifestIntegrity.
func TestImageValidateCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(img *Image)
	}{
		{"unknown directory", func(img *Image) { img.Files[0].DirID = 9999 }},
		{"negative size", func(img *Image) { img.Files[0].Size = -1 }},
		{"inconsistent depth", func(img *Image) { img.Files[0].Depth = 99 }},
		{"file name with a separator", func(img *Image) { img.Files[0].Name = "a/b" }},
		{"file named .", func(img *Image) { img.Files[0].Name = "." }},
		{"file named ..", func(img *Image) { img.Files[0].Name = ".." }},
		{"file IDs that skip", func(img *Image) { img.Files = append(img.Files[:1], img.Files[2:]...) }},
		{"file whose directory steps back", func(img *Image) {
			last, first := &img.Files[len(img.Files)-1], img.Files[0]
			last.DirID, last.Depth = first.DirID, first.Depth
		}},
		{"directory whose parent comes after it", func(img *Image) { img.Tree.Dirs[1].Parent = 2 }},
		{"directory name with a separator", func(img *Image) { img.Tree.Dirs[1].Name = "a/b" }},
	} {
		img := buildTestImage(t)
		tc.corrupt(img)
		if err := img.Validate(); !errors.Is(err, ErrManifestIntegrity) {
			t.Errorf("%s: Validate = %v, want ErrManifestIntegrity", tc.name, err)
		}
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
	st := img.Stats(StatsConfig{CountBins: 65})
	if total := st.FilesBySize().Total(); total != 10 {
		t.Errorf("files-by-size total %g", total)
	}
	if total := st.BytesBySize().Total(); total != float64(img.TotalBytes()) {
		t.Errorf("bytes-by-size total %g, want %d", total, img.TotalBytes())
	}
	if total := st.FilesByDepth().Total(); total != 10 {
		t.Errorf("files-by-depth total %g", total)
	}
	if total := st.DirsByDepth().Total(); total != 20 {
		t.Errorf("dirs-by-depth total %g", total)
	}
	if total := st.DirsBySubdir().Total(); total != 20 {
		t.Errorf("dirs-by-subdir total %g", total)
	}
	if total := st.DirsByFileCount().Total(); total != 20 {
		t.Errorf("dirs-by-filecount total %g", total)
	}
	mean := st.MeanBytesByDepth()
	for d, v := range mean {
		if v < 0 {
			t.Errorf("negative mean bytes at depth %d", d)
		}
	}

	// A chain of 101 directories: depths 16 through 100 pool into the last
	// of 17 depth bins.
	deep := New(namespace.GenerateTree(nil, 101, namespace.ShapeDeep)).Stats(StatsConfig{CountBins: 65})
	if total := deep.DirsByDepth().Total(); total != 101 {
		t.Errorf("deep tree: dirs-by-depth total %g, want 101", total)
	}
	if last := deep.DirsByDepth().Counts[16]; last != 101-16 {
		t.Errorf("deep tree: last depth bin %g, want %d", last, 101-16)
	}
}

func TestTopExtensions(t *testing.T) {
	img := buildTestImage(t)
	top := img.Stats(StatsConfig{}).TopExtensions(3)
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
	fracs := img.Stats(StatsConfig{}).ExtensionFractions([]string{"txt", "jpg", "null"})
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
			p := filepath.Join(root, filepath.FromSlash(filePath(img, f)))
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
	p := filepath.Join(root, filepath.FromSlash(filePath(img, f)))
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
	a, err := os.ReadFile(filepath.Join(rootA, filepath.FromSlash(filePath(img, f))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(rootB, filepath.FromSlash(filePath(img, f))))
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
		files[i] = File{ID: i, Name: MakeFileName(i, ext), Ext: ext, Size: 1100, DirID: i * nDirs / nFiles}
	}
	root := t.TempDir()
	opts := MaterializeOptions{Seed: 1, Parallelism: 1}.WithDefaults(1) // the registry is built once, not per run
	dirs := NewMaterializeSink(root, tree, opts)
	for id := range nDirs {
		if err := dirs.AddDir(DirRecord{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dirs.Close(); err != nil {
		t.Fatal(err)
	}
	digests := make([]string, nFiles)
	opts.OnDigest = func(f File, sum string) { digests[f.ID] = sum }
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		sink := NewMaterializeSink(root, tree, opts)
		for _, f := range files {
			if werr := sink.AddFile(f); werr != nil {
				err = werr
				return
			}
		}
		if werr := sink.Close(); werr != nil {
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

// TestScanNumbersFilesByDirectory: a/b/y sorts before a/x by path, but a
// scan numbers each directory's files together, so the scanned image is
// canonical and validates.
func TestScanNumbersFilesByDirectory(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"a/x", "a/b/y", "a/b/z", "a/w", "top"} {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(rel), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	img, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var got []string
	for _, f := range img.Files {
		got = append(got, filePath(img, f))
	}
	if want := []string{"top", "a/w", "a/x", "a/b/y", "a/b/z"}; !slices.Equal(got, want) {
		t.Errorf("scanned files in order %q, want %q", got, want)
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
