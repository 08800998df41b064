package namespace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

func TestGenerateTreeGenerativeBasics(t *testing.T) {
	rng := stats.NewRNG(1)
	tree := GenerateTree(rng, 1000, ShapeGenerative)
	if tree.Len() != 1000 {
		t.Fatalf("tree has %d dirs, want 1000", tree.Len())
	}
	if tree.Dirs[0].Parent != -1 || tree.Dirs[0].Depth != 0 {
		t.Error("root must have parent -1 and depth 0")
	}
	for _, d := range tree.Dirs[1:] {
		parent := tree.Dirs[d.Parent]
		if d.Depth != parent.Depth+1 {
			t.Fatalf("dir %d depth %d inconsistent with parent depth %d", d.ID, d.Depth, parent.Depth)
		}
	}
}

func TestGenerateTreeSubdirCountsConsistent(t *testing.T) {
	rng := stats.NewRNG(2)
	tree := GenerateTree(rng, 500, ShapeGenerative)
	counts := make([]int, tree.Len())
	for _, d := range tree.Dirs[1:] {
		counts[d.Parent]++
	}
	for i, d := range tree.Dirs {
		if d.SubdirCount != counts[i] {
			t.Fatalf("dir %d SubdirCount %d, recount %d", i, d.SubdirCount, counts[i])
		}
	}
}

func TestGenerateTreeDeterministic(t *testing.T) {
	a := GenerateTree(stats.NewRNG(9), 300, ShapeGenerative)
	b := GenerateTree(stats.NewRNG(9), 300, ShapeGenerative)
	for i := range a.Dirs {
		if a.Dirs[i].Parent != b.Dirs[i].Parent {
			t.Fatal("same-seed trees differ")
		}
	}
}

func TestFlatAndDeepShapes(t *testing.T) {
	flat := GenerateTree(nil, 101, ShapeFlat)
	if flat.MaxDepth() != 1 {
		t.Errorf("flat tree max depth %d, want 1", flat.MaxDepth())
	}
	if len(flat.DirsAtDepth(1)) != 100 {
		t.Errorf("flat tree has %d dirs at depth 1, want 100", len(flat.DirsAtDepth(1)))
	}
	deep := GenerateTree(nil, 101, ShapeDeep)
	if deep.MaxDepth() != 100 {
		t.Errorf("deep tree max depth %d, want 100", deep.MaxDepth())
	}
	for depth := 1; depth <= 100; depth++ {
		if len(deep.DirsAtDepth(depth)) != 1 {
			t.Fatalf("deep tree should have exactly one dir at depth %d", depth)
		}
	}
}

func TestTreeShapeString(t *testing.T) {
	if ShapeGenerative.String() != "generative" || ShapeFlat.String() != "flat" || ShapeDeep.String() != "deep" {
		t.Error("unexpected shape names")
	}
}

func TestTreePaths(t *testing.T) {
	tree := GenerateTree(nil, 1, ShapeFlat)
	a := tree.AddDir(0)
	b := tree.AddDir(a)
	if tree.Path(0) != "" {
		t.Errorf("root path %q, want empty", tree.Path(0))
	}
	pa, pb := tree.Path(a), tree.Path(b)
	if !strings.HasPrefix(pb, pa+"/") {
		t.Errorf("child path %q should extend parent path %q", pb, pa)
	}
}

func TestGenerativeDepthGrowsWithSize(t *testing.T) {
	small := GenerateTree(stats.NewRNG(3), 100, ShapeGenerative)
	large := GenerateTree(stats.NewRNG(3), 5000, ShapeGenerative)
	if large.MaxDepth() <= small.MaxDepth() {
		t.Errorf("larger trees should be deeper: %d vs %d", large.MaxDepth(), small.MaxDepth())
	}
}

func TestMarkSpecial(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(5), 50, ShapeGenerative)
	specials := []SpecialDir{
		{Name: "Program Files", Depth: 2, Bias: 16},
		{Name: "Temporary Internet Files", Depth: 7, Bias: 30},
	}
	tree.MarkSpecial(specials)
	marked := tree.SpecialDirs()
	if len(marked) != 2 {
		t.Fatalf("marked %d special dirs, want 2", len(marked))
	}
	foundDepths := map[int]bool{}
	for _, id := range marked {
		d := tree.Dirs[id]
		foundDepths[d.Depth] = true
		if d.Bias <= 1 {
			t.Errorf("special dir %q bias %g", d.Name, d.Bias)
		}
	}
	if !foundDepths[2] || !foundDepths[7] {
		t.Errorf("special dirs at depths %v, want 2 and 7", foundDepths)
	}
	// Depth 7 may not have existed in a 50-dir tree; MarkSpecial must have
	// extended the tree to reach it.
	if tree.MaxDepth() < 7 {
		t.Errorf("tree max depth %d; MarkSpecial should ensure depth 7 exists", tree.MaxDepth())
	}
}

// TestMarkSpecialSanitizesNames: a configured special directory is always
// one entry of its parent, whatever name it was given.
func TestMarkSpecialSanitizesNames(t *testing.T) {
	for name, want := range map[string]string{"bad/name": "bad_name", ".": "_", "..": "__", "": "special", "x\x00y": "x_y", "...": "...", ".cache": ".cache"} {
		tree := GenerateTree(nil, 3, ShapeFlat)
		tree.MarkSpecial([]SpecialDir{{Name: name, Depth: 1, Bias: 5}})
		if got := tree.Dirs[tree.SpecialDirs()[0]].Name; got != want {
			t.Errorf("special directory %q is named %q, want %q", name, got, want)
		}
	}
}

func TestDepthHistogramCounts(t *testing.T) {
	tree := GenerateTree(nil, 101, ShapeDeep)
	counts := tree.DepthHistogramCounts(17)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total != 101 {
		t.Errorf("histogram total %g, want 101", total)
	}
	// Depths 17..100 are pooled into the last bin.
	if counts[16] != 101-16 {
		t.Errorf("last bin %g, want %d", counts[16], 101-16)
	}
}

func TestPlacerPlacesAllFiles(t *testing.T) {
	rng := stats.NewRNG(4)
	tree := GenerateTree(rng, 200, ShapeGenerative)
	placer := NewPlacer(tree, PlacerConfig{
		DepthModel:   stats.NewPoisson(6.49),
		DirFileModel: stats.NewInversePolynomial(2, 2.36, 4096),
	}, rng.Fork("placer"))
	const n = 2000
	totalSize := int64(0)
	for i := 0; i < n; i++ {
		size := int64(1024 * (i%50 + 1))
		p := placer.Place(size)
		totalSize += size
		if p.DirID < 0 || p.DirID >= tree.Len() {
			t.Fatalf("placement %d references unknown dir %d", i, p.DirID)
		}
		if p.FileDepth != tree.Dirs[p.DirID].Depth+1 {
			t.Fatalf("file depth %d inconsistent with dir depth %d", p.FileDepth, tree.Dirs[p.DirID].Depth)
		}
	}
	var placed int
	var bytes int64
	for _, d := range tree.Dirs {
		placed += d.FileCount
		bytes += d.Bytes
	}
	if placed != n {
		t.Errorf("tree accounts for %d files, want %d", placed, n)
	}
	if bytes != totalSize {
		t.Errorf("tree accounts for %d bytes, want %d", bytes, totalSize)
	}
}

func TestPlacerDepthFollowsPoisson(t *testing.T) {
	rng := stats.NewRNG(8)
	tree := GenerateTree(rng, 3000, ShapeGenerative)
	placer := NewPlacer(tree, PlacerConfig{
		DepthModel:   stats.NewPoisson(6.49),
		DirFileModel: stats.NewInversePolynomial(2, 2.36, 4096),
	}, rng.Fork("placer"))
	for i := 0; i < 20000; i++ {
		placer.Place(4096)
	}
	hist := FileDepthHistogram(tree, 17)
	total := 0.0
	weighted := 0.0
	for d, c := range hist {
		total += c
		weighted += float64(d) * c
	}
	meanDepth := weighted / total
	// The placer restricts depths to those with existing parents, so the mean
	// is a bit below lambda; it should still be in a sensible band.
	if meanDepth < 3.5 || meanDepth > 8.5 {
		t.Errorf("mean file depth %.2f far from Poisson lambda 6.49", meanDepth)
	}
}

func TestPlacerSpecialBias(t *testing.T) {
	rng := stats.NewRNG(12)
	tree := GenerateTree(rng, 500, ShapeGenerative)
	tree.MarkSpecial([]SpecialDir{{Name: "Program Files", Depth: 2, Bias: 40}})
	placer := NewPlacer(tree, PlacerConfig{
		DepthModel:            stats.NewPoisson(6.49),
		DirFileModel:          stats.NewInversePolynomial(2, 2.36, 4096),
		UseSpecialDirectories: true,
	}, rng.Fork("placer"))
	for i := 0; i < 10000; i++ {
		placer.Place(8192)
	}
	specialID := tree.SpecialDirs()[0]
	specialCount := tree.Dirs[specialID].FileCount
	// Compare against the average file count of non-special dirs at depth 2.
	peers := tree.DirsAtDepth(2)
	var peerTotal, peerN int
	for _, id := range peers {
		if id == specialID {
			continue
		}
		peerTotal += tree.Dirs[id].FileCount
		peerN++
	}
	if peerN == 0 {
		t.Skip("no peer directories at depth 2")
	}
	avgPeer := float64(peerTotal) / float64(peerN)
	if float64(specialCount) < 3*avgPeer {
		t.Errorf("special dir holds %d files, peers average %.1f; expected a strong bias", specialCount, avgPeer)
	}
}

func TestPlacerSizeDepthCoupling(t *testing.T) {
	rng := stats.NewRNG(16)
	tree := GenerateTree(rng, 2000, ShapeGenerative)
	meanBytes := make([]float64, 17)
	for d := range meanBytes {
		// Steeply decreasing desired size with depth.
		meanBytes[d] = 4 * 1024 * 1024 / float64(int64(1)<<uint(d))
	}
	placer := NewPlacer(tree, PlacerConfig{
		DepthModel:        stats.NewPoisson(6.49),
		DirFileModel:      stats.NewInversePolynomial(2, 2.36, 4096),
		MeanBytesByDepth:  meanBytes,
		SizeAffinitySigma: 1.0,
	}, rng.Fork("placer"))
	// Place many huge and many tiny files; huge files should land shallower
	// on average.
	var hugeDepth, tinyDepth float64
	const n = 3000
	for i := 0; i < n; i++ {
		hugeDepth += float64(placer.Place(8 << 20).FileDepth)
		tinyDepth += float64(placer.Place(512).FileDepth)
	}
	if hugeDepth/n >= tinyDepth/n {
		t.Errorf("large files mean depth %.2f should be shallower than small files %.2f",
			hugeDepth/n, tinyDepth/n)
	}
}

// referenceChooseDepth is ChooseDepth as it was written until PR 18: a
// weights slice per call and the per-depth logarithm recomputed per file.
func referenceChooseDepth(p *Placer, size int64, rng *stats.RNG) int {
	weights := make([]float64, p.maxFileDepth+1)
	total := 0.0
	logSize := math.Log(float64(size) + 1)
	for d := 1; d <= p.maxFileDepth; d++ {
		if len(p.tree.DirsAtDepth(d-1)) == 0 {
			continue
		}
		w := p.depthPMF[d]
		if p.cfg.MeanBytesByDepth != nil {
			mean := p.meanBytesAt(d)
			diff := logSize - math.Log(mean+1)
			w *= math.Exp(-diff * diff / (2 * p.sigma * p.sigma))
		}
		weights[d] = w
		total += w
	}
	if total <= 0 {
		for d := 1; d <= p.maxFileDepth; d++ {
			if len(p.tree.DirsAtDepth(d-1)) > 0 {
				return d
			}
		}
		return 1
	}
	target := rng.Float64() * total
	acc := 0.0
	last := 1
	for d := 1; d <= p.maxFileDepth; d++ {
		if weights[d] <= 0 {
			continue
		}
		last = d
		acc += weights[d]
		if target < acc {
			return d
		}
	}
	return last
}

// TestChooseDepthMatchesReference: the table-driven ChooseDepth draws the
// depth the reference draws from the same stream, with and without the
// size-affinity term, on a tree its stack array holds and on a chain deeper
// than that.
func TestChooseDepthMatchesReference(t *testing.T) {
	meanBytes := make([]float64, 17)
	for d := range meanBytes {
		meanBytes[d] = 4 * 1024 * 1024 / float64(int64(1)<<uint(d))
	}
	for name, tree := range map[string]*Tree{
		"generative": GenerateTree(stats.NewRNG(16), 2000, ShapeGenerative),
		"chain":      GenerateTree(nil, 150, ShapeDeep),
	} {
		for _, mb := range [][]float64{nil, meanBytes} {
			placer := NewPlacer(tree, PlacerConfig{
				DepthModel:       stats.NewPoisson(6.49),
				DirFileModel:     stats.NewInversePolynomial(2, 2.36, 4096),
				MeanBytesByDepth: mb,
			}, stats.NewRNG(1))
			got, want := stats.NewRNG(7), stats.NewRNG(7)
			for i := 0; i < 2000; i++ {
				size := int64(i) * int64(i) * 977
				if g, w := placer.ChooseDepth(size, got), referenceChooseDepth(placer, size, want); g != w {
					t.Fatalf("%s tree, size affinity %v, file %d: ChooseDepth = %d, the reference draws %d", name, mb != nil, i, g, w)
				}
			}
		}
	}
}

func TestMeanBytesPerFileByDepth(t *testing.T) {
	tree := GenerateTree(nil, 3, ShapeFlat)
	tree.Dirs[1].FileCount = 2
	tree.Dirs[1].Bytes = 2048
	out := MeanBytesPerFileByDepth(tree, 5)
	if out[2] != 1024 {
		t.Errorf("mean bytes at depth 2 = %g, want 1024", out[2])
	}
}

// TestGenerateTreeParallelDeterminism: for a fixed seed, GenerateTreeParallel
// at every worker count returns the tree GenerateTree builds.
func TestGenerateTreeParallelDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 10, 500, 20000} {
		for _, seed := range []int64{1, 42, 977} {
			ref := GenerateTree(stats.NewRNG(seed), n, ShapeGenerative)
			for _, workers := range []int{1, 2, 4, 8} {
				got := GenerateTreeParallel(stats.NewRNG(seed), n, ShapeGenerative, workers)
				if len(got.Dirs) != len(ref.Dirs) {
					t.Fatalf("n=%d seed=%d workers=%d: %d dirs, want %d",
						n, seed, workers, len(got.Dirs), len(ref.Dirs))
				}
				for i := range ref.Dirs {
					if got.Dirs[i] != ref.Dirs[i] {
						t.Fatalf("n=%d seed=%d workers=%d: dir %d differs: %+v vs %+v",
							n, seed, workers, i, got.Dirs[i], ref.Dirs[i])
					}
				}
				if got.MaxDepth() != ref.MaxDepth() {
					t.Fatalf("n=%d seed=%d workers=%d: max depth %d, want %d",
						n, seed, workers, got.MaxDepth(), ref.MaxDepth())
				}
			}
		}
	}
}

// TestGenerateTreePreferentialAttachment sanity-checks that the build
// realizes the C(d)+2 dynamics: early directories accumulate far
// more children than late ones (preferential attachment), and fan-out is
// heavy-tailed.
func TestGenerateTreePreferentialAttachment(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(7), 20000, ShapeGenerative)
	firstHalf, secondHalf := 0, 0
	for _, d := range tree.Dirs {
		if d.ID < 10000 {
			firstHalf += d.SubdirCount
		} else {
			secondHalf += d.SubdirCount
		}
	}
	if firstHalf <= secondHalf*2 {
		t.Errorf("preferential attachment should favor early directories: first half %d children, second half %d",
			firstHalf, secondHalf)
	}
	maxFan := 0
	for _, d := range tree.Dirs {
		if d.SubdirCount > maxFan {
			maxFan = d.SubdirCount
		}
	}
	if maxFan < 20 {
		t.Errorf("max fan-out %d; the rich-get-richer dynamics should produce large hubs", maxFan)
	}
}

// TestTreePathMatchesReference pins Path's two-pass fill against a naive
// reference implementation.
func TestTreePathMatchesReference(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(11), 500, ShapeGenerative)
	ref := func(id int) string {
		if id <= 0 {
			return ""
		}
		out := tree.Dirs[id].Name
		for p := tree.Dirs[id].Parent; p > 0; p = tree.Dirs[p].Parent {
			out = tree.Dirs[p].Name + "/" + out
		}
		return out
	}
	for id := 0; id < tree.Len(); id++ {
		if got, want := tree.Path(id), ref(id); got != want {
			t.Fatalf("Path(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestDirNameFormatting(t *testing.T) {
	cases := map[int]string{0: "dir00000", 7: "dir00007", 99999: "dir99999", 123456: "dir123456"}
	for id, want := range cases {
		if got := dirName(id); got != want {
			t.Errorf("dirName(%d) = %q, want %q", id, got, want)
		}
	}
}

// Property: the generative model always produces a single rooted tree with
// exactly the requested number of directories and consistent depths.
func TestQuickGenerativeTreeInvariants(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw)%400 + 1
		tree := GenerateTree(stats.NewRNG(seed), n, ShapeGenerative)
		if tree.Len() != n {
			return false
		}
		seen := 0
		for depth := 0; depth <= tree.MaxDepth(); depth++ {
			seen += len(tree.DirsAtDepth(depth))
		}
		if seen != n {
			return false
		}
		for _, d := range tree.Dirs[1:] {
			if d.Parent < 0 || d.Parent >= d.ID {
				return false // parents must precede children
			}
			if d.Depth != tree.Dirs[d.Parent].Depth+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
