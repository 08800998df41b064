package content

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

func TestPopularityModelEmitsKnownWords(t *testing.T) {
	m := NewPopularityModel(1.0)
	rng := stats.NewRNG(1)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[string(m.AppendWord(nil, rng))]++
	}
	if counts["the"] == 0 {
		t.Fatal("most popular word never emitted")
	}
	// Zipf: rank 1 should be much more frequent than rank 50.
	if counts["the"] <= counts["if"] {
		t.Errorf("word popularity not Zipf-like: the=%d if=%d", counts["the"], counts["if"])
	}
	if m.Vocabulary() < 100 {
		t.Errorf("vocabulary %d too small", m.Vocabulary())
	}
}

func TestLengthModelWordShapes(t *testing.T) {
	m := NewLengthModel()
	rng := stats.NewRNG(2)
	totalLen := 0
	for i := 0; i < 5000; i++ {
		w := m.AppendWord(nil, rng)
		if len(w) == 0 || len(w) > 24 {
			t.Fatalf("word %q has unreasonable length", w)
		}
		for _, c := range w {
			if c < 'a' || c > 'z' {
				t.Fatalf("word %q contains non-letter", w)
			}
		}
		totalLen += len(w)
	}
	mean := float64(totalLen) / 5000
	if mean < 2 || mean > 8 {
		t.Errorf("mean synthetic word length %.2f outside the English-like band", mean)
	}
}

func TestHybridModelMixesSources(t *testing.T) {
	m := NewHybridModel(0.5)
	rng := stats.NewRNG(3)
	known := map[string]bool{}
	for _, w := range popularWords {
		known[w] = true
	}
	fromList, synthetic := 0, 0
	for i := 0; i < 5000; i++ {
		if known[string(m.AppendWord(nil, rng))] {
			fromList++
		} else {
			synthetic++
		}
	}
	if fromList == 0 || synthetic == 0 {
		t.Errorf("hybrid model should mix both sources: list=%d synthetic=%d", fromList, synthetic)
	}
}

func TestSingleWordModel(t *testing.T) {
	m := NewSingleWordModel("")
	rng := stats.NewRNG(4)
	if string(m.AppendWord(nil, rng)) != "impressions" || string(m.AppendWord(nil, rng)) != "impressions" {
		t.Error("single-word model should always emit the same word")
	}
}

func TestTextGeneratorExactSize(t *testing.T) {
	g := NewTextGenerator(NewHybridModel(0.2))
	rng := stats.NewRNG(5)
	for _, size := range []int64{0, 1, 7, 100, 4096, 100000} {
		var buf bytes.Buffer
		if err := g.Generate(&buf, size, rng); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != size {
			t.Errorf("generated %d bytes, want %d", buf.Len(), size)
		}
	}
}

func TestTextGeneratorIsTexty(t *testing.T) {
	g := NewTextGenerator(NewPopularityModel(1.0))
	rng := stats.NewRNG(6)
	var buf bytes.Buffer
	if err := g.Generate(&buf, 5000, rng); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, " ") && !strings.Contains(s, "\n") {
		t.Error("text content should contain separators")
	}
	for _, c := range []byte(s) {
		if c != ' ' && c != '\n' && (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			t.Fatalf("unexpected byte %q in text content", c)
		}
	}
}

func TestBinaryGeneratorSizeAndEntropy(t *testing.T) {
	g := BinaryGenerator{}
	rng := stats.NewRNG(7)
	var buf bytes.Buffer
	if err := g.Generate(&buf, 64*1024, rng); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 64*1024 {
		t.Fatalf("generated %d bytes", buf.Len())
	}
	// Count distinct byte values; random data should use most of them.
	seen := map[byte]bool{}
	for _, b := range buf.Bytes() {
		seen[b] = true
	}
	if len(seen) < 200 {
		t.Errorf("binary content uses only %d distinct byte values", len(seen))
	}
}

func TestZeroGenerator(t *testing.T) {
	var buf bytes.Buffer
	if err := (ZeroGenerator{}).Generate(&buf, 10000, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf.Bytes() {
		if b != 0 {
			t.Fatal("zero generator produced non-zero byte")
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := []Generator{
		NewTextGenerator(NewHybridModel(0.2)),
		BinaryGenerator{},
		NewJPEG(),
		NewPDF(),
	}
	for _, g := range gens {
		var a, b bytes.Buffer
		if err := g.Generate(&a, 10000, stats.NewRNG(99)); err != nil {
			t.Fatal(err)
		}
		if err := g.Generate(&b, 10000, stats.NewRNG(99)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: same-seed content differs", g.Name())
		}
	}
}

func TestTypedGeneratorsHeaders(t *testing.T) {
	cases := []struct {
		gen   *TypedGenerator
		magic []byte
	}{
		{NewJPEG(), []byte{0xFF, 0xD8}},
		{NewGIF(), []byte("GIF89a")},
		{NewPNG(), []byte{0x89, 'P', 'N', 'G'}},
		{NewMP3(), []byte("ID3")},
		{NewPDF(), []byte("%PDF-")},
		{NewHTML(), []byte("<!DOCTYPE html>")},
		{NewZIP(), []byte{'P', 'K', 0x03, 0x04}},
		{NewExecutable("exe"), []byte{'M', 'Z'}},
		{NewWAV(), []byte("RIFF")},
		{NewMPEG(), []byte{0x00, 0x00, 0x01, 0xBA}},
	}
	rng := stats.NewRNG(8)
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.gen.Generate(&buf, 8192, rng); err != nil {
			t.Fatalf("%s: %v", c.gen.Name(), err)
		}
		if buf.Len() != 8192 {
			t.Errorf("%s: generated %d bytes, want 8192", c.gen.Name(), buf.Len())
		}
		if !bytes.HasPrefix(buf.Bytes(), c.magic) {
			t.Errorf("%s: content does not start with its magic number", c.gen.Name())
		}
	}
}

func TestTypedGeneratorFooter(t *testing.T) {
	rng := stats.NewRNG(9)
	var buf bytes.Buffer
	if err := NewJPEG().Generate(&buf, 4096, rng); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte{0xFF, 0xD9}) {
		t.Error("JPEG content should end with EOI marker")
	}
}

func TestTypedGeneratorTinyFiles(t *testing.T) {
	rng := stats.NewRNG(10)
	for _, size := range []int64{0, 1, 3, 10} {
		var buf bytes.Buffer
		if err := NewJPEG().Generate(&buf, size, rng); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != size {
			t.Errorf("size %d: generated %d bytes", size, buf.Len())
		}
	}
}

func TestRegistryDefaultPolicy(t *testing.T) {
	r := NewRegistry(KindDefault)
	if r.Kind() != KindDefault {
		t.Error("kind mismatch")
	}
	if _, ok := r.ForExtension("jpg").(*TypedGenerator); !ok {
		t.Error("jpg should map to a typed generator")
	}
	if _, ok := r.ForExtension(".JPG").(*TypedGenerator); !ok {
		t.Error("extension lookup should be case-insensitive and tolerate dots")
	}
	if _, ok := r.ForExtension("txt").(*TextGenerator); !ok {
		t.Error("txt should map to the text generator")
	}
	if _, ok := r.ForExtension("xyz").(BinaryGenerator); !ok {
		t.Error("unknown extensions should map to binary content")
	}
	if _, ok := r.ForExtension("").(*TextGenerator); !ok {
		t.Error("files without an extension should map to the text generator")
	}
}

func TestRegistryUniformPolicies(t *testing.T) {
	rng := stats.NewRNG(11)
	cases := map[Kind]string{
		KindTextSingleWord: "impressions",
		KindTextModel:      " ",
	}
	for kind, needle := range cases {
		r := NewRegistry(kind)
		var buf bytes.Buffer
		if err := r.ForExtension("dll").Generate(&buf, 2000, rng); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), needle) {
			t.Errorf("policy %s: generated content for dll does not look like text", kind)
		}
	}
	r := NewRegistry(KindImage)
	var buf bytes.Buffer
	if err := r.ForExtension("txt").Generate(&buf, 2000, rng); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte{0xFF, 0xD8}) {
		t.Error("image policy should generate JPEG content for every file")
	}
}

func TestKindKnown(t *testing.T) {
	for _, k := range []Kind{KindDefault, KindTextSingleWord, KindTextModel, KindImage, KindBinary, KindZero} {
		if !k.Known() {
			t.Errorf("kind %q should be known", k)
		}
	}
	for _, k := range []Kind{"", "text", "Default", "jpeg"} {
		if k.Known() {
			t.Errorf("kind %q should not be known", k)
		}
	}
}

func TestCountingWriter(t *testing.T) {
	var cw CountingWriter
	if err := (ZeroGenerator{}).Generate(&cw, 12345, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if cw.N != 12345 {
		t.Errorf("counted %d bytes, want 12345", cw.N)
	}
}

// TestTextGeneratorLineWidthRegression pins the wrap-before-word fix: the
// old generator appended the separator after the overflowing word, so lines
// ran past the 72-character width. No built-in model emits words longer than
// the width, so every line must now fit (both the fused hybrid fast path and
// the generic per-word path).
func TestTextGeneratorLineWidthRegression(t *testing.T) {
	models := []WordModel{
		NewHybridModel(0.2),     // fused fillBlock path
		NewHybridModel(1.0),     // all-tail fused path
		NewPopularityModel(1.0), // generic path
		NewLengthModel(),        // generic path, synthetic words
		NewSingleWordModel(""),  // generic path, fixed word
	}
	for _, m := range models {
		g := NewTextGenerator(m)
		var buf bytes.Buffer
		if err := g.Generate(&buf, 300_000, stats.NewRNG(21)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		for i, line := range lines {
			if len(line) > TextLineWidth {
				t.Fatalf("%s: line %d has %d chars (> %d): %q",
					m.Name(), i, len(line), TextLineWidth, line)
			}
		}
		if len(lines) < 2 {
			t.Fatalf("%s: expected wrapped lines in 300 KB of text", m.Name())
		}
	}
}

// TestContentEdgeSizes drives every registry kind through the awkward sizes:
// empty files, files smaller than one word, and sizes straddling the 32 KB
// block boundary.
func TestContentEdgeSizes(t *testing.T) {
	kinds := []Kind{KindDefault, KindTextSingleWord, KindTextModel, KindImage, KindBinary, KindZero}
	exts := []string{"txt", "jpg", "xyz", ""}
	sizes := []int64{0, 1, 2, 3, 5, 17, blockSize - 1, blockSize, blockSize + 1, 2*blockSize + 17}
	for _, kind := range kinds {
		r := NewRegistry(kind)
		for _, ext := range exts {
			gen := r.ForExtension(ext)
			for _, size := range sizes {
				var cw CountingWriter
				if err := gen.Generate(&cw, size, stats.NewRNG(size+1)); err != nil {
					t.Fatalf("%s/%s size %d: %v", kind, ext, size, err)
				}
				if cw.N != size {
					t.Fatalf("%s/%s: generated %d bytes, want %d", kind, ext, cw.N, size)
				}
			}
		}
	}
}

// TestContentMultiGB streams a multi-gigabyte file through each Generate
// method the registry kinds hand out, into a CountingWriter, exercising the
// int64 paths past 2^31. There are four: the text generator's (its single-
// word model, the cheaper of the two models it fills blocks with; a block
// is at most blockSize, so no model sees the file's size), binary's, the
// typed formats' (JPEG) and zero's; each runs once. The race detector build
// (and -short) shrinks the size: the point there is the overflow arithmetic,
// not the throughput.
func TestContentMultiGB(t *testing.T) {
	size := int64(2)<<30 + 7 // just past 2 GiB
	if testing.Short() || raceEnabled {
		size = int64(1)<<26 + 7
	}
	for _, kind := range []Kind{KindTextSingleWord, KindBinary, KindImage, KindZero} {
		gen := NewRegistry(kind).ForExtension("xyz")
		var cw CountingWriter
		if err := gen.Generate(&cw, size, stats.NewRNG(1)); err != nil {
			t.Fatalf("%s (%s): %v", kind, gen.Name(), err)
		}
		if cw.N != size {
			t.Fatalf("%s (%s): generated %d bytes, want %d", kind, gen.Name(), cw.N, size)
		}
	}
}

// TestTextGeneratorSteadyStateAllocs asserts the pooled block engine settles
// into allocation-free generation.
func TestTextGeneratorSteadyStateAllocs(t *testing.T) {
	g := NewTextGenerator(NewHybridModel(0.2))
	rng := stats.NewRNG(9)
	var cw CountingWriter
	// Warm the pool.
	if err := g.Generate(&cw, 1<<16, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := g.Generate(&cw, 1<<16, rng); err != nil {
			t.Fatal(err)
		}
	})
	// The shared pool may be drained by a GC between runs; anything beyond
	// the occasional refill indicates a per-word or per-block regression.
	if allocs > 1 {
		t.Errorf("steady-state Generate performs %.1f allocs per call, want ~0", allocs)
	}
}

// TestPopularWordsFitFusedPacking: the hybrid model packs " word" into a
// 16-byte slot and keeps each word's length in a byte, so every built-in
// popular word must be 1 to 15 bytes long.
func TestPopularWordsFitFusedPacking(t *testing.T) {
	for i, w := range popularWords {
		if len(w) == 0 || len(w) >= 16 {
			t.Errorf("popular word %d %q is %d bytes; the fused packing holds 1 to 15", i, w, len(w))
		}
	}
}

// TestHybridFusedMatchesModelMix verifies the fused single-draw path still
// produces the configured body/tail blend.
func TestHybridFusedMatchesModelMix(t *testing.T) {
	known := map[string]bool{}
	for _, w := range popularWords {
		known[w] = true
	}
	for _, tailProb := range []float64{0, 0.2, 0.5, 1} {
		m := NewHybridModel(tailProb)
		rng := stats.NewRNG(13)
		tail := 0
		const n = 20000
		var buf []byte
		for i := 0; i < n; i++ {
			buf = m.AppendWord(buf[:0], rng)
			if !known[string(buf)] {
				tail++
			}
		}
		got := float64(tail) / n
		// Short synthetic tail words collide with popular words ("he", "an",
		// ...) roughly 7% of the time, so the observed tail rate sits at or
		// below the configured one.
		if got > tailProb+0.02 || got < tailProb-0.1 {
			t.Errorf("tailProb=%.1f: observed tail fraction %.3f", tailProb, got)
		}
	}
}

// Property: every generator produces exactly the requested number of bytes
// for arbitrary sizes.
func TestQuickGeneratorsExactSize(t *testing.T) {
	gens := []Generator{
		NewTextGenerator(NewHybridModel(0.2)),
		BinaryGenerator{},
		ZeroGenerator{},
		NewJPEG(),
		NewPDF(),
	}
	f := func(sizeRaw uint16, seed int64) bool {
		size := int64(sizeRaw)
		rng := stats.NewRNG(seed)
		for _, g := range gens {
			var cw CountingWriter
			if err := g.Generate(&cw, size, rng); err != nil {
				return false
			}
			if cw.N != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
