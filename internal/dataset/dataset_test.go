package dataset

import (
	"math"
	"slices"
	"sync"
	"testing"

	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

func TestDefaultDatasetCached(t *testing.T) {
	a := Default()
	b := Default()
	if a != b {
		t.Error("Default() should return a cached singleton")
	}
	if a.Seed() != 20090225 {
		t.Errorf("default seed = %d", a.Seed())
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := New(5, WithSampleCount(20000), WithDirectorySampleCount(2000))
	b := New(5, WithSampleCount(20000), WithDirectorySampleCount(2000))
	af := a.FilesBySize().Normalize()
	bf := b.FilesBySize().Normalize()
	for i := range af {
		if af[i] != bf[i] {
			t.Fatal("same-seed datasets produced different desired curves")
		}
	}
}

func TestDesiredCurvesNormalized(t *testing.T) {
	d := New(7, WithSampleCount(20000), WithDirectorySampleCount(2000))
	curves := map[string]*stats.Histogram{
		"dirs by depth":    d.DirsByDepth(),
		"dirs by subdirs":  d.DirsBySubdirCount(),
		"files by size":    d.FilesBySize(),
		"bytes by size":    d.BytesByFileSize(),
		"files by depth":   d.FilesByDepth(),
		"files by depth s": d.FilesByDepthWithSpecial(),
	}
	for name, h := range curves {
		if h.Total() <= 0 {
			t.Errorf("%s: empty desired curve", name)
			continue
		}
		sum := 0.0
		for _, f := range h.Normalize() {
			if f < 0 {
				t.Errorf("%s: negative fraction", name)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: fractions sum to %g", name, sum)
		}
	}
}

func TestFileSizeCurveMatchesModel(t *testing.T) {
	d := New(11, WithSampleCount(50000), WithDirectorySampleCount(1000))
	// The desired files-by-size curve should pass a K-S-style comparison
	// against a fresh sample from the same parametric model.
	model := DefaultFileSizeModel()
	rng := stats.NewRNG(999)
	fresh := stats.NewPowerOfTwoHistogram(SizeMaxExp)
	for i := 0; i < 50000; i++ {
		fresh.Add(model.Sample(rng))
	}
	mdcc, err := gof.MDCC(d.FilesBySize().Normalize(), fresh.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if mdcc > 0.02 {
		t.Errorf("desired curve deviates from the Table 2 model: MDCC %.4f", mdcc)
	}
}

func TestBytesBySizeBimodal(t *testing.T) {
	d := New(13, WithSampleCount(50000), WithDirectorySampleCount(1000))
	fracs := d.BytesByFileSize().Normalize()
	// The mixture of lognormals should put substantial mass both around
	// 2MB-16MB (low mode) and around 512MB+ (high mode).
	low, high := 0.0, 0.0
	h := d.BytesByFileSize()
	for i, f := range fracs {
		edge := h.Edges[i]
		if edge >= 1<<20 && edge < 64<<20 {
			low += f
		}
		if edge >= 256<<20 {
			high += f
		}
	}
	if low < 0.1 {
		t.Errorf("low byte mode has only %.3f of mass", low)
	}
	if high < 0.1 {
		t.Errorf("high byte mode has only %.3f of mass", high)
	}
}

func TestExtensionTables(t *testing.T) {
	byCount := DefaultExtensionsByCount()
	byBytes := DefaultExtensionsByBytes()
	for _, table := range []stats.Categorical{byCount, byBytes} {
		probs := table.Probs()
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("extension probabilities sum to %g", sum)
		}
		if table.Len() != 21 {
			t.Errorf("expected top-20 extensions plus others, got %d", table.Len())
		}
	}
	// The named extensions (excluding others) should cover roughly half of
	// all files, as the paper states.
	named := 1 - byCount.Prob("others")
	if named < 0.45 || named > 0.75 {
		t.Errorf("named extensions cover %.2f of files; expected roughly half", named)
	}
	for _, must := range []string{"cpp", "dll", "exe", "gif", "h", "htm", "jpg", "null", "txt"} {
		if byCount.Prob(must) <= 0 {
			t.Errorf("extension table missing %q from Figure 2(e)", must)
		}
	}
}

func TestSpecialDirectories(t *testing.T) {
	specials := DefaultSpecialDirectories()
	if len(specials) == 0 {
		t.Fatal("no special directories")
	}
	depths := map[int]bool{}
	for _, s := range specials {
		if s.Bias <= 1 {
			t.Errorf("special directory %q has non-amplifying bias %g", s.Name, s.Bias)
		}
		depths[s.Depth] = true
	}
	// The paper's example uses web cache at depth 7, Windows/Program Files at
	// depth 2 and System files at depth 3.
	for _, want := range []int{2, 3, 7} {
		if !depths[want] {
			t.Errorf("no special directory at depth %d", want)
		}
	}
}

func TestMeanBytesByDepthDecreasing(t *testing.T) {
	d := Default()
	mean := d.MeanBytesByDepth()
	if len(mean) != DepthBins {
		t.Fatalf("expected %d depth bins, got %d", DepthBins, len(mean))
	}
	if mean[0] <= mean[10] {
		t.Errorf("mean bytes should decrease with depth: depth0=%.0f depth10=%.0f", mean[0], mean[10])
	}
	for i, v := range mean {
		if v <= 0 {
			t.Errorf("mean bytes at depth %d is %g", i, v)
		}
	}
}

func TestFilesByDepthSpecialShiftsMass(t *testing.T) {
	d := Default()
	plain := d.FilesByDepth().Normalize()
	special := d.FilesByDepthWithSpecial().Normalize()
	// With special directories, depth 2 and 7 should gain mass relative to
	// the plain Poisson curve.
	if special[2] <= plain[2] {
		t.Errorf("depth 2 mass should grow with special dirs: %.4f vs %.4f", special[2], plain[2])
	}
	if special[7] <= plain[7]*0.8 {
		t.Errorf("depth 7 should keep substantial mass with special dirs: %.4f vs %.4f", special[7], plain[7])
	}
}

func TestDirsByDepthForScalesWithTreeSize(t *testing.T) {
	d := Default()
	small := d.DirsByDepthFor(200)
	large := d.DirsByDepthFor(5000)
	// Larger trees are deeper: mean depth should grow with directory count.
	meanDepth := func(h *stats.Histogram) float64 {
		fracs := h.Normalize()
		m := 0.0
		for i, f := range fracs {
			m += float64(i) * f
		}
		return m
	}
	if meanDepth(large) <= meanDepth(small) {
		t.Errorf("mean depth should grow with tree size: %0.2f (5000 dirs) vs %0.2f (200 dirs)",
			meanDepth(large), meanDepth(small))
	}
}

func TestProfilesTrendWithFSSize(t *testing.T) {
	d := New(3, WithSampleCount(40000), WithDirectorySampleCount(500))
	small := d.Profile(10 * GB)
	large := d.Profile(125 * GB)
	meanBin := func(h *stats.Histogram) float64 {
		fracs := h.Normalize()
		m := 0.0
		for i, f := range fracs {
			m += float64(i) * f
		}
		return m
	}
	if meanBin(large.FilesBySize) <= meanBin(small.FilesBySize) {
		t.Error("larger file systems should skew towards larger files")
	}
	if small.FSSizeBytes != 10*GB || large.FSSizeBytes != 125*GB {
		t.Error("profiles should record their file-system size")
	}
}

func TestProfilesSortedAndDeterministic(t *testing.T) {
	d := New(3, WithSampleCount(40000), WithDirectorySampleCount(500))
	ps := d.Profiles([]float64{100, 10, 50})
	if len(ps) != 3 {
		t.Fatalf("got %d profiles", len(ps))
	}
	if ps[0].FSSizeBytes > ps[1].FSSizeBytes || ps[1].FSSizeBytes > ps[2].FSSizeBytes {
		t.Error("profiles should be sorted by size")
	}
	again := d.Profile(50 * GB)
	a := ps[1].FilesBySize.Normalize()
	b := again.FilesBySize.Normalize()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("profile for the same size is not deterministic")
		}
	}
}

func TestDatasetString(t *testing.T) {
	d := New(9, WithSampleCount(20000), WithDirectorySampleCount(100))
	if d.String() == "" {
		t.Error("String() should describe the dataset")
	}
}

// TestCurvesConcurrentFirstUse: the daemon and the parallel experiments share
// one Dataset, so the first use of its curves may come from many goroutines
// at once. Each accessor must return what it returns on a dataset used from
// one goroutine; run it under -race.
func TestCurvesConcurrentFirstUse(t *testing.T) {
	opts := []Option{WithSampleCount(20000), WithDirectorySampleCount(2000)}
	shared, ref := New(21, opts...), New(21, opts...)
	accessors := []func(*Dataset) *stats.Histogram{
		(*Dataset).DirsByDepth, (*Dataset).DirsBySubdirCount, (*Dataset).FilesBySize,
		(*Dataset).BytesByFileSize, (*Dataset).FilesByDepth, (*Dataset).FilesByDepthWithSpecial,
	}
	got := make([]*stats.Histogram, 4*len(accessors))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = accessors[i%len(accessors)](shared)
		}()
	}
	wg.Wait()
	for i, h := range got {
		want := accessors[i%len(accessors)](ref)
		if !slices.Equal(h.Edges, want.Edges) || !slices.Equal(h.Counts, want.Counts) {
			t.Errorf("accessor %d under concurrent first use differs from its single-goroutine value", i%len(accessors))
		}
	}
}

// BenchmarkNew: what every process that generates pays for its dataset
// (analytic) and what the first accuracy measurement adds (curves).
func BenchmarkNew(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		for b.Loop() {
			New(20090225)
		}
	})
	b.Run("curves", func(b *testing.B) {
		for b.Loop() {
			New(20090225).FilesBySize()
		}
	})
}
