package search

import (
	"testing"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/stats"
)

// testImage generates a moderate default image once per test run.
func testImage(t *testing.T) *core.Result {
	t.Helper()
	// A moderate lognormal keeps per-file sizes small so content generation
	// and tokenization stay fast; the engines' policies are unaffected.
	res, err := core.GenerateImage(core.Config{
		NumFiles:     1500,
		NumDirs:      300,
		Seed:         101,
		FileSizeDist: stats.NewLognormal(9.0, 1.8),
	})
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	return res
}

func TestInvertedIndexBasics(t *testing.T) {
	ix := NewInvertedIndex(false)
	ix.AddTerm("hello")
	ix.AddTerm("hello")
	ix.AddTerm("world")
	ix.AddTerm("")
	ix.AddDocument(50)
	if ix.Terms() != 2 {
		t.Errorf("terms %d, want 2", ix.Terms())
	}
	if ix.Postings() != 3 {
		t.Errorf("postings %d, want 3", ix.Postings())
	}
	if ix.SizeBytes() <= 0 {
		t.Error("index size should be positive")
	}
}

func TestPositionalIndexLarger(t *testing.T) {
	plain := NewInvertedIndex(false)
	positional := NewInvertedIndex(true)
	for i := 0; i < 1000; i++ {
		plain.AddTerm("word")
		positional.AddTerm("word")
	}
	if positional.SizeBytes() <= plain.SizeBytes() {
		t.Error("positional postings should be larger")
	}
}

func TestTokenizingWriter(t *testing.T) {
	ix := NewInvertedIndex(false)
	tw := newTokenizingWriter(ix)
	if _, err := tw.Write([]byte("Hello, WORLD! hello again42 ")); err != nil {
		t.Fatal(err)
	}
	tw.Flush()
	if ix.Terms() != 3 { // hello, world, again42
		t.Errorf("terms %d, want 3", ix.Terms())
	}
	if ix.Postings() != 4 { // hello twice, world, again42
		t.Errorf("postings %d, want 4", ix.Postings())
	}
}

func TestPolicyDecide(t *testing.T) {
	gdl := GDLPolicy()
	if ok, reason := gdl.Decide(ClassText, 1024, 12); ok || reason != SkipTooDeep {
		t.Errorf("GDL should skip deep files: %v %v", ok, reason)
	}
	if ok, reason := gdl.Decide(ClassText, 300*1024, 3); ok || reason != SkipTextTooBig {
		t.Errorf("GDL should skip large text: %v %v", ok, reason)
	}
	if ok, _ := gdl.Decide(ClassText, 100*1024, 3); !ok {
		t.Error("GDL should index small shallow text")
	}
	beagle := BeaglePolicy()
	if ok, reason := beagle.Decide(ClassArchive, 20<<20, 2); ok || reason != SkipArchiveBig {
		t.Errorf("Beagle should skip big archives: %v %v", ok, reason)
	}
	if ok, reason := beagle.Decide(ClassScript, 64*1024, 2); ok || reason != SkipScriptBig {
		t.Errorf("Beagle should skip big scripts: %v %v", ok, reason)
	}
	if ok, _ := beagle.Decide(ClassText, 2<<20, 14); !ok {
		t.Error("Beagle has no depth cutoff and should index deep text")
	}
	disabled := beagle.Apply(VariantDisFilter)
	if ok, reason := disabled.Decide(ClassText, 10, 1); ok || reason != SkipFiltersOff {
		t.Errorf("DisFilter should skip all content: %v %v", ok, reason)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]FileClass{
		"txt": ClassText, "htm": ClassText, "": ClassText,
		"zip": ClassArchive, "sh": ClassScript,
		"jpg": ClassImage, "dll": ClassBinary, "xyz": ClassBinary,
	}
	for ext, want := range cases {
		if got := Classify(ext); got != want {
			t.Errorf("Classify(%q) = %v, want %v", ext, got, want)
		}
	}
}

func TestVariantApply(t *testing.T) {
	p := BeaglePolicy()
	if !p.Apply(VariantTextCache).TextCache {
		t.Error("TextCache variant should enable the text cache")
	}
	if p.Apply(VariantDisDir).IndexDirectories {
		t.Error("DisDir variant should disable directory indexing")
	}
	if !p.Apply(VariantDisFilter).DisableFilters {
		t.Error("DisFilter variant should disable filters")
	}
	if p.Apply(VariantOriginal) != p {
		t.Error("Original variant should leave the policy unchanged")
	}
}

func TestEngineIndexBasic(t *testing.T) {
	res := testImage(t)
	reg := content.NewRegistry(content.KindDefault)
	out := NewEngine(BeaglePolicy()).Index(res.Image, reg, res.Image.Spec.Seed)
	if out.IndexedFiles+out.AttributeOnlyFiles != res.Image.FileCount() {
		t.Errorf("indexed %d + attribute-only %d != %d files",
			out.IndexedFiles, out.AttributeOnlyFiles, res.Image.FileCount())
	}
	if out.IndexBytes <= 0 || out.TimeMs <= 0 {
		t.Error("index size and time should be positive")
	}
	if out.Terms == 0 {
		t.Error("default-content image should produce text terms")
	}
	if out.FSBytes != res.Image.TotalBytes() {
		t.Error("FSBytes should match the image size")
	}
	if out.IndexRatio() <= 0 || out.IndexRatio() > 1 {
		t.Errorf("index ratio %.4f implausible", out.IndexRatio())
	}
}

func TestEngineDeterministic(t *testing.T) {
	res := testImage(t)
	reg := content.NewRegistry(content.KindDefault)
	a := NewEngine(GDLPolicy()).Index(res.Image, reg, 5)
	b := NewEngine(GDLPolicy()).Index(res.Image, reg, 5)
	if a.IndexBytes != b.IndexBytes || a.Terms != b.Terms {
		t.Error("same-seed indexing runs should be identical")
	}
}

func TestGDLSkipsDeepAndLargeText(t *testing.T) {
	res := testImage(t)
	reg := content.NewRegistry(content.KindDefault)
	out := NewEngine(GDLPolicy()).Index(res.Image, reg, res.Image.Spec.Seed)
	skippedBig := out.SkippedByReason[SkipTextTooBig]
	if skippedBig == 0 {
		t.Error("a default image should contain text files above GDL's 200KB cutoff")
	}
	// Depth skips depend on the namespace; with lambda 6.49 some files are
	// deeper than 10 in most trees, but do not require it strictly.
	if out.IndexedFiles == 0 {
		t.Error("GDL should still index plenty of files")
	}
}

func TestFigure7ContentCrossover(t *testing.T) {
	// Figure 7: with word-model text Beagle's index is larger than GDL's;
	// with binary content GDL's index is larger than Beagle's.
	textRes, err := core.GenerateImage(core.Config{
		NumFiles: 800, NumDirs: 150,
		ContentKind: content.KindTextModel, Seed: 55,
		FileSizeDist: stats.NewLognormal(8.5, 1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	textReg := content.NewRegistry(content.KindTextModel)
	beagleText := NewEngine(BeaglePolicy()).Index(textRes.Image, textReg, 55)
	gdlText := NewEngine(GDLPolicy()).Index(textRes.Image, textReg, 55)
	if beagleText.IndexBytes <= gdlText.IndexBytes {
		t.Errorf("with text content Beagle's index (%d) should exceed GDL's (%d)",
			beagleText.IndexBytes, gdlText.IndexBytes)
	}

	binRes, err := core.GenerateImage(core.Config{
		NumFiles: 800, NumDirs: 150,
		ContentKind: content.KindBinary, Seed: 55,
		FileSizeDist: stats.NewLognormal(8.5, 1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	binReg := content.NewRegistry(content.KindBinary)
	beagleBin := NewEngine(BeaglePolicy()).Index(binRes.Image, binReg, 55)
	gdlBin := NewEngine(GDLPolicy()).Index(binRes.Image, binReg, 55)
	if gdlBin.IndexBytes <= beagleBin.IndexBytes {
		t.Errorf("with binary content GDL's index (%d) should exceed Beagle's (%d)",
			gdlBin.IndexBytes, beagleBin.IndexBytes)
	}
}

func TestBeagleVariants(t *testing.T) {
	res := testImage(t)
	reg := content.NewRegistry(content.KindDefault)
	seed := res.Image.Spec.Seed
	original := NewEngineVariant(BeaglePolicy(), VariantOriginal).Index(res.Image, reg, seed)
	textCache := NewEngineVariant(BeaglePolicy(), VariantTextCache).Index(res.Image, reg, seed)
	disDir := NewEngineVariant(BeaglePolicy(), VariantDisDir).Index(res.Image, reg, seed)
	disFilter := NewEngineVariant(BeaglePolicy(), VariantDisFilter).Index(res.Image, reg, seed)

	if textCache.IndexBytes <= original.IndexBytes {
		t.Errorf("TextCache index (%d) should be larger than Original (%d)",
			textCache.IndexBytes, original.IndexBytes)
	}
	if textCache.TextCacheBytes == 0 {
		t.Error("TextCache variant should store snippet bytes")
	}
	if disDir.IndexBytes >= original.IndexBytes {
		t.Errorf("DisDir index (%d) should be smaller than Original (%d)",
			disDir.IndexBytes, original.IndexBytes)
	}
	if disFilter.IndexBytes >= original.IndexBytes/2 {
		t.Errorf("DisFilter index (%d) should be far smaller than Original (%d)",
			disFilter.IndexBytes, original.IndexBytes)
	}
	if disFilter.TimeMs >= original.TimeMs {
		t.Errorf("DisFilter (%.1fms) should be faster than Original (%.1fms)",
			disFilter.TimeMs, original.TimeMs)
	}
	if original.Variant != VariantOriginal || disDir.Variant != VariantDisDir {
		t.Error("results should record their variant")
	}
}

func TestInotifyWatchLimitTriggersManualCrawl(t *testing.T) {
	// Beagle resorts to manually crawling directories once their count
	// exceeds the kernel's default 8192 inotify watches (§4.1 of the paper).
	res, err := core.GenerateImage(core.Config{
		NumFiles: 2000, NumDirs: 9000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := content.NewRegistry(content.KindZero)
	big := NewEngine(BeaglePolicy()).Index(res.Image, reg, 3)
	if !big.ManualCrawl {
		t.Error("exceeding the inotify watch limit should trigger manual crawling")
	}
	small := testImage(t)
	ok := NewEngine(BeaglePolicy()).Index(small.Image, reg, 3)
	if ok.ManualCrawl {
		t.Error("small trees should not trigger manual crawling")
	}
	// The same image indexed by an engine with a raised watch limit must be
	// faster, because it avoids the manual crawl.
	raised := BeaglePolicy()
	raised.InotifyWatchLimit = 100000
	noCrawl := NewEngine(raised).Index(res.Image, reg, 3)
	if noCrawl.ManualCrawl {
		t.Error("raised watch limit should avoid manual crawling")
	}
	if big.TimeMs <= noCrawl.TimeMs {
		t.Errorf("manual crawl (%.1fms) should cost more than watch-based crawl (%.1fms)",
			big.TimeMs, noCrawl.TimeMs)
	}
}

// TestVariantsIndexTheImageBytes: every engine and variant reads a file's
// text from the file's own content stream, so Beagle's Original and
// TextCache variants, which decide alike for text, index the same terms from
// one image.
func TestVariantsIndexTheImageBytes(t *testing.T) {
	const seed = 20090225
	res, err := core.GenerateImage(core.Config{
		NumFiles: 800, NumDirs: 160, FSSizeBytes: 40 << 20, Seed: seed,
		ContentKind: content.KindTextModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := content.NewRegistry(content.KindTextModel)
	original := NewEngineVariant(BeaglePolicy(), VariantOriginal).Index(res.Image, reg, seed)
	textCache := NewEngineVariant(BeaglePolicy(), VariantTextCache).Index(res.Image, reg, seed)
	if original.IndexedFiles != textCache.IndexedFiles {
		t.Fatalf("Original indexed %d files, TextCache %d", original.IndexedFiles, textCache.IndexedFiles)
	}
	if original.Terms != textCache.Terms {
		t.Errorf("Original read %d terms, TextCache %d from the same image", original.Terms, textCache.Terms)
	}
}
