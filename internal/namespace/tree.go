// Package namespace implements the creation of file-system namespaces
// (directory trees) and the placement of files within them, following §3.3
// of the paper:
//
//   - Directory trees are built with the generative model of Agrawal et al.
//     (FAST '07): directories are added one at a time and the probability of
//     choosing an extant directory d as the parent is proportional to
//     C(d)+2, where C(d) is d's current count of subdirectories.
//   - Files are assigned a namespace depth with a multiplicative model that
//     combines the Poisson distribution of file count with depth and the
//     mean-bytes-per-depth curve, then a parent directory at depth d−1 is
//     chosen according to an inverse-polynomial model of directory file
//     counts, with an optional bias towards "special" directories.
package namespace

import (
	"fmt"
	"strconv"
)

// Dir is one directory in a generated namespace.
type Dir struct {
	// ID is the directory's index in the tree (0 is the root).
	ID int
	// Parent is the parent directory's ID (-1 for the root).
	Parent int
	// Depth is the number of edges from the root (root is 0).
	Depth int
	// Name is the directory's base name.
	Name string
	// SubdirCount is the number of immediate subdirectories.
	SubdirCount int
	// FileCount is the number of files placed directly in this directory.
	FileCount int
	// Bytes is the total size of files placed directly in this directory.
	Bytes int64
	// Special marks directories that receive a placement bias (e.g.
	// "Program Files", web caches).
	Special bool
	// Bias is the multiplicative placement weight for special directories.
	Bias float64
	// FileShare is the fraction of all files that should land directly in
	// this directory (0 = no explicit share; only Bias applies).
	FileShare float64
}

// SpecialDir describes a special directory to mark in a generated tree.
type SpecialDir struct {
	Name  string
	Depth int
	// Bias is the multiplicative preference over sibling directories when a
	// parent is chosen at this directory's depth.
	Bias float64
	// FileShare, when positive, is the fraction of all files placed directly
	// into this directory — the "conditional probabilities" of Table 2
	// (e.g. a Windows web cache holding ~15% of all files).
	FileShare float64
}

// Tree is a generated directory tree.
type Tree struct {
	// Dirs holds every directory; Dirs[0] is the root.
	Dirs []Dir

	byDepth  [][]int // directory IDs at each depth
	maxDepth int
}

// TreeShape selects how the directory tree is structured.
type TreeShape int

const (
	// ShapeGenerative uses the Agrawal et al. generative model (the default).
	ShapeGenerative TreeShape = iota
	// ShapeFlat puts every directory directly under the root (depth 1), the
	// "Flat Tree" configuration of Figure 1.
	ShapeFlat
	// ShapeDeep nests each directory inside the previous one, producing a
	// chain of depth equal to the directory count (Figure 1's "Deep Tree").
	ShapeDeep
)

// String returns the shape name.
func (s TreeShape) String() string {
	switch s {
	case ShapeFlat:
		return "flat"
	case ShapeDeep:
		return "deep"
	default:
		return "generative"
	}
}

// ParseShape parses a shape name ("generative", "flat", "deep"; "" selects
// generative) as produced by TreeShape.String.
func ParseShape(s string) (TreeShape, error) {
	switch s {
	case "", "generative":
		return ShapeGenerative, nil
	case "flat":
		return ShapeFlat, nil
	case "deep":
		return ShapeDeep, nil
	default:
		return ShapeGenerative, fmt.Errorf("namespace: unknown tree shape %q", s)
	}
}

// WeightedChooser is the sampling interface the tree builder needs: one
// uniform in [0, 1) per directory index, a pure function of the chooser's
// seed and the index. *stats.RNG satisfies it.
type WeightedChooser interface {
	UniformAt(i uint64) float64
}

// GenerateTreeParallel is GenerateTree: the C(d)+2 preferential-attachment
// model is inherently sequential — directory i's parent weights depend on
// all earlier choices — and speculating on it measured slower than the
// serial loop at every size, so workers is ignored. The name stays for the
// benchmark's skeleton probe (bench/pipeline).
func GenerateTreeParallel(rng WeightedChooser, nDirs int, shape TreeShape, workers int) *Tree {
	return GenerateTree(rng, nDirs, shape)
}

// GenerateTree builds a directory tree with nDirs directories (including the
// root) using the requested shape. For the generative shape, rng drives the
// parent choices; flat and deep shapes are deterministic and take a nil rng.
func GenerateTree(rng WeightedChooser, nDirs int, shape TreeShape) *Tree {
	if nDirs < 1 {
		nDirs = 1
	}
	t := &Tree{Dirs: make([]Dir, 0, nDirs)}
	t.addRoot()
	switch shape {
	case ShapeFlat:
		for i := 1; i < nDirs; i++ {
			t.AddDir(0)
		}
	case ShapeDeep:
		parent := 0
		for i := 1; i < nDirs; i++ {
			parent = t.AddDir(parent)
		}
	default:
		t.generate(rng, nDirs)
	}
	return t
}

func (t *Tree) addRoot() {
	t.Dirs = append(t.Dirs, Dir{ID: 0, Parent: -1, Depth: 0, Name: ""})
	t.byDepth = append(t.byDepth, []int{0})
}

// generate runs the C(d)+2 preferential-attachment model. Directory i's
// parent is fully determined by u_i = UniformAt(i) and the weights after
// i-1 attachments: the total weight is always exactly 3i - 1 (every
// attachment adds 2 for the new directory and 1 for its parent), so the
// target is u_i * (3i - 1). A Fenwick (binary indexed) tree over the
// per-directory weights keeps each parent choice O(log n).
func (t *Tree) generate(rng WeightedChooser, nDirs int) {
	fen := newFenwick(nDirs)
	fen.add(0, 2) // root starts with weight C(root)+2 = 2
	for i := 1; i < nDirs; i++ {
		p := fen.find(rng.UniformAt(uint64(i)) * float64(3*i-1))
		id := t.AddDir(p)
		fen.add(id, 2) // the new directory enters with weight 2
		fen.add(p, 1)  // the parent's C(d) grew by one
	}
}

// dirName formats the canonical directory name ("dir%05d") without fmt.
func dirName(id int) string {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(id), 10)
	out := make([]byte, 0, 13)
	out = append(out, 'd', 'i', 'r')
	for i := len(digits); i < 5; i++ {
		out = append(out, '0')
	}
	out = append(out, digits...)
	return string(out)
}

// AddDir appends a new directory under the given parent and returns its ID.
func (t *Tree) AddDir(parent int) int {
	id := len(t.Dirs)
	depth := t.Dirs[parent].Depth + 1
	t.Dirs = append(t.Dirs, Dir{
		ID:     id,
		Parent: parent,
		Depth:  depth,
		Name:   dirName(id),
	})
	t.Dirs[parent].SubdirCount++
	for len(t.byDepth) <= depth {
		t.byDepth = append(t.byDepth, nil)
	}
	t.byDepth[depth] = append(t.byDepth[depth], id)
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	return id
}

// Len returns the number of directories (including the root).
func (t *Tree) Len() int { return len(t.Dirs) }

// MaxDepth returns the deepest directory depth in the tree.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// DirsAtDepth returns the IDs of directories at the given depth (nil if none).
func (t *Tree) DirsAtDepth(depth int) []int {
	if depth < 0 || depth >= len(t.byDepth) {
		return nil
	}
	return t.byDepth[depth]
}

// Path returns the slash-separated path of the directory with the given ID,
// relative to the tree root (the root itself is ""). One ancestor walk sizes
// the result and a second fills it right-to-left, so building a path is
// O(depth) with a single allocation (the old implementation re-concatenated
// the prefix per component: O(depth²) bytes copied).
func (t *Tree) Path(id int) string {
	return string(t.AppendPath(nil, id))
}

// AppendPath appends the directory's slash-separated path (relative to the
// tree root; nothing for the root itself) to dst and returns the extended
// slice. It is the allocation-free form of Path for hot loops that build
// many paths into one reused buffer — the VFS materializer and the archive
// sinks both format every entry's path this way.
func (t *Tree) AppendPath(dst []byte, id int) []byte {
	if id <= 0 {
		return dst
	}
	n := 0
	for cur := id; cur > 0; cur = t.Dirs[cur].Parent {
		n += len(t.Dirs[cur].Name) + 1
	}
	n-- // no separator before the first component
	base := len(dst)
	if cap(dst) < base+n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	pos := base + n
	for cur := id; cur > 0; cur = t.Dirs[cur].Parent {
		name := t.Dirs[cur].Name
		pos -= len(name)
		copy(dst[pos:], name)
		if pos > base {
			pos--
			dst[pos] = '/'
		}
	}
	return dst
}

// MarkSpecial marks one directory at each special entry's depth as special
// with the given bias and renames it. If no directory exists at that depth
// yet, a chain of directories is created to reach it, so special depths are
// always representable (the paper's web cache sits at depth 7 even in small
// trees).
func (t *Tree) MarkSpecial(specials []SpecialDir) {
	for _, sp := range specials {
		if sp.Depth < 1 {
			continue
		}
		t.ensureDepth(sp.Depth)
		candidates := t.DirsAtDepth(sp.Depth)
		// Choose the first non-special candidate for determinism.
		chosen := -1
		for _, id := range candidates {
			if !t.Dirs[id].Special {
				chosen = id
				break
			}
		}
		if chosen < 0 {
			chosen = candidates[0]
		}
		t.Dirs[chosen].Special = true
		t.Dirs[chosen].Bias = sp.Bias
		t.Dirs[chosen].FileShare = sp.FileShare
		t.Dirs[chosen].Name = sanitizeName(sp.Name)
	}
}

// ensureDepth guarantees at least one directory exists at the given depth by
// extending a chain from the deepest existing ancestor if necessary.
func (t *Tree) ensureDepth(depth int) {
	for t.maxDepth < depth {
		parents := t.DirsAtDepth(t.maxDepth)
		t.AddDir(parents[0])
	}
	if len(t.DirsAtDepth(depth)) == 0 {
		// There is a gap (cannot happen with AddDir, but keep the invariant).
		parents := t.DirsAtDepth(depth - 1)
		t.AddDir(parents[0])
	}
}

// SpecialDirs returns the IDs of directories marked special.
func (t *Tree) SpecialDirs() []int {
	var out []int
	for _, d := range t.Dirs {
		if d.Special {
			out = append(out, d.ID)
		}
	}
	return out
}

// DepthHistogramCounts returns the count of directories at each depth from 0
// through maxBins-1; deeper directories are accumulated into the last bin.
func (t *Tree) DepthHistogramCounts(maxBins int) []float64 {
	out := make([]float64, maxBins)
	for _, d := range t.Dirs {
		bin := d.Depth
		if bin >= maxBins {
			bin = maxBins - 1
		}
		out[bin]++
	}
	return out
}

// SubdirCountHistogram returns the count of directories having each
// subdirectory count from 0 through maxBins-1 (larger counts accumulate into
// the last bin).
func (t *Tree) SubdirCountHistogram(maxBins int) []float64 {
	out := make([]float64, maxBins)
	for _, d := range t.Dirs {
		bin := d.SubdirCount
		if bin >= maxBins {
			bin = maxBins - 1
		}
		out[bin]++
	}
	return out
}

func sanitizeName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '/' || c == 0 {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "special"
	}
	return string(out)
}

// fenwick is a binary indexed tree over float64 weights supporting prefix
// sums and weighted sampling by cumulative value.
type fenwick struct {
	tree []float64
	n    int
	sum  float64
}

func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]float64, n+1), n: n}
}

func (f *fenwick) add(i int, delta float64) {
	f.sum += delta
	for i++; i <= f.n; i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) total() float64 { return f.sum }

// find returns the smallest index i such that the prefix sum through i is
// greater than target.
func (f *fenwick) find(target float64) int {
	idx := 0
	bit := 1
	for bit<<1 <= f.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= f.n && f.tree[next] <= target {
			idx = next
			target -= f.tree[next]
		}
	}
	return idx // 0-based element index
}
