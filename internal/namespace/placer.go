package namespace

import (
	"math"

	"impressions/internal/stats"
)

// PlacerConfig configures how files are assigned namespace depths and parent
// directories (§3.3.2 of the paper).
type PlacerConfig struct {
	// DepthModel is the Poisson model of file count with depth
	// (Table 2: λ=6.49).
	DepthModel stats.Poisson
	// MeanBytesByDepth is the desired mean file size at each depth; it is the
	// second factor of the multiplicative depth model. May be nil to disable
	// the size-affinity term.
	MeanBytesByDepth []float64
	// DirFileModel is the inverse-polynomial model of directory size in files
	// (Table 2: degree 2, offset 2.36) used to weight parent choices.
	DirFileModel stats.InversePolynomial
	// UseSpecialDirectories applies the Bias of special directories when
	// choosing parents.
	UseSpecialDirectories bool
	// MaxDepth caps file depth (0 means the tree's own max depth + 1).
	MaxDepth int
}

// sizeAffinitySigma is the log-space width of the size-affinity factor in
// the multiplicative depth model; a larger width would weaken the coupling
// between file size and depth.
const sizeAffinitySigma = 3.0

// Placer assigns files to directories within a Tree.
type Placer struct {
	tree *Tree
	cfg  PlacerConfig
	rng  *stats.RNG

	depthPMF     []float64 // Poisson PMF per candidate file depth
	logMeanBytes []float64 // log(desired mean bytes + 1) per candidate file depth
	sigma        float64
	maxFileDepth int

	// parentFen holds one Fenwick tree of parent-choice weights per directory
	// depth, built lazily on first use and updated incrementally on Commit, so
	// each parent choice is O(log n) instead of a linear scan over every
	// candidate. Entry d is only ever touched by the worker owning file depth
	// d+1, so lazy construction is race-free in the parallel pipeline.
	parentFen  []*fenwick
	posInDepth []int // position of each directory within its depth's ID list

	// Special directories with explicit file shares (Table 2's conditional
	// probabilities): a file lands directly in one of them with probability
	// specialShare, split proportionally to the individual shares.
	specialIDs   []int
	specialCum   []float64
	specialShare float64
}

// NewPlacer builds a placer over tree. Files are placed at depths 1 through
// tree.MaxDepth()+1 (a file directly in a directory at depth d has file depth
// d+1, matching the paper's convention that a file at depth d has its parent
// directory at depth d−1).
func NewPlacer(tree *Tree, cfg PlacerConfig, rng *stats.RNG) *Placer {
	p := &Placer{tree: tree, cfg: cfg, rng: rng}
	p.sigma = sizeAffinitySigma
	p.maxFileDepth = cfg.MaxDepth
	if p.maxFileDepth <= 0 {
		p.maxFileDepth = tree.MaxDepth() + 1
	}
	if p.maxFileDepth < 1 {
		p.maxFileDepth = 1
	}
	p.depthPMF = make([]float64, p.maxFileDepth+1)
	p.logMeanBytes = make([]float64, p.maxFileDepth+1)
	for d := 1; d <= p.maxFileDepth; d++ {
		p.depthPMF[d] = cfg.DepthModel.PMF(d)
		if p.depthPMF[d] <= 0 {
			p.depthPMF[d] = 1e-12
		}
		p.logMeanBytes[d] = math.Log(p.meanBytesAt(d) + 1)
	}
	p.parentFen = make([]*fenwick, tree.MaxDepth()+1)
	p.posInDepth = make([]int, tree.Len())
	for depth := 0; depth <= tree.MaxDepth(); depth++ {
		for i, id := range tree.DirsAtDepth(depth) {
			p.posInDepth[id] = i
		}
	}
	if cfg.UseSpecialDirectories {
		acc := 0.0
		for _, id := range tree.SpecialDirs() {
			share := tree.Dirs[id].FileShare
			if share <= 0 {
				continue
			}
			acc += share
			p.specialIDs = append(p.specialIDs, id)
			p.specialCum = append(p.specialCum, acc)
		}
		if acc > 0.95 {
			acc = 0.95 // leave room for the regular namespace
		}
		p.specialShare = acc
	}
	return p
}

// Placement describes where a file was placed.
type Placement struct {
	// DirID is the parent directory's ID.
	DirID int
	// FileDepth is the file's namespace depth (parent depth + 1).
	FileDepth int
}

// Place assigns a file of the given size to a directory and returns the
// placement. The parent directory's FileCount and Bytes are updated so
// subsequent placements see the new state.
func (p *Placer) Place(size int64) Placement {
	// Special directories with explicit file shares absorb their fraction of
	// files directly (Table 2's conditional probabilities for special dirs).
	if dirID, ok := p.ChooseSpecial(p.rng); ok {
		p.Commit(dirID, size)
		return Placement{DirID: dirID, FileDepth: p.tree.Dirs[dirID].Depth + 1}
	}
	depth := p.ChooseDepth(size, p.rng)
	dirID := p.ChooseParentAt(depth-1, p.rng)
	p.Commit(dirID, size)
	return Placement{DirID: dirID, FileDepth: depth}
}

// ChooseSpecial draws whether a file lands directly in a special directory
// with an explicit file share, returning the chosen directory ID. It reads
// only immutable placer state, so it is safe to call concurrently with an
// independent rng per goroutine.
func (p *Placer) ChooseSpecial(rng *stats.RNG) (int, bool) {
	if p.specialShare <= 0 || rng.Float64() >= p.specialShare {
		return 0, false
	}
	u := rng.Float64() * p.specialCum[len(p.specialCum)-1]
	idx := 0
	for idx < len(p.specialCum)-1 && p.specialCum[idx] < u {
		idx++
	}
	return p.specialIDs[idx], true
}

// Commit records a placed file in the tree's per-directory counters so
// subsequent parent choices see the new state. Callers running in parallel
// must ensure disjoint directory ownership (the pipeline assigns each
// namespace depth to exactly one worker).
func (p *Placer) Commit(dirID int, size int64) {
	d := &p.tree.Dirs[dirID]
	oldWeight := p.parentWeight(d)
	d.FileCount++
	d.Bytes += size
	if fen := p.parentFen[d.Depth]; fen != nil {
		fen.add(p.posInDepth[dirID], p.parentWeight(d)-oldWeight)
	}
}

// parentWeight is the parent-choice weight of one directory: the inverse-
// polynomial model of its file count, scaled by the special-directory bias
// when enabled.
func (p *Placer) parentWeight(d *Dir) float64 {
	w := p.cfg.DirFileModel.Weight(d.FileCount)
	if p.cfg.UseSpecialDirectories && d.Special {
		w *= d.Bias
	}
	return w
}

// MaxFileDepth returns the deepest file depth the placer considers.
func (p *Placer) MaxFileDepth() int { return p.maxFileDepth }

// ChooseDepth implements the multiplicative depth model: the probability of
// file depth d is proportional to PoissonPMF(d) multiplied by a lognormal
// affinity between the file's size and the desired mean bytes per file at
// that depth. Only depths with at least one candidate parent directory are
// considered. ChooseDepth reads only the immutable tree skeleton (never the
// evolving file counters), so shard workers may call it concurrently, each
// with its own rng.
func (p *Placer) ChooseDepth(size int64, rng *stats.RNG) int {
	// Called once per file: the weights live on the stack for any tree a
	// generator has produced, and the per-depth logarithm comes from
	// NewPlacer's table.
	var stack [64]float64
	weights := stack[:]
	if p.maxFileDepth >= len(stack) {
		weights = make([]float64, p.maxFileDepth+1)
	}
	total := 0.0
	logSize := math.Log(float64(size) + 1)
	for d := 1; d <= p.maxFileDepth; d++ {
		if len(p.tree.DirsAtDepth(d-1)) == 0 {
			continue
		}
		w := p.depthPMF[d]
		if p.cfg.MeanBytesByDepth != nil {
			diff := logSize - p.logMeanBytes[d]
			w *= math.Exp(-diff * diff / (2 * p.sigma * p.sigma))
		}
		weights[d] = w
		total += w
	}
	if total <= 0 {
		// Fall back to the shallowest depth that has a parent.
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
	// Floating-point fallthrough (target == total after rounding): return the
	// deepest depth that actually carried weight, never a depth without a
	// populated parent level — the parallel parent pass relies on every
	// chosen depth having its own candidates (one worker per depth).
	return last
}

func (p *Placer) meanBytesAt(depth int) float64 {
	if len(p.cfg.MeanBytesByDepth) == 0 {
		return 1
	}
	if depth >= len(p.cfg.MeanBytesByDepth) {
		return p.cfg.MeanBytesByDepth[len(p.cfg.MeanBytesByDepth)-1]
	}
	return p.cfg.MeanBytesByDepth[depth]
}

// ChooseParentAt selects a directory at the given depth, weighting each
// candidate by the inverse-polynomial model of its current file count and,
// when enabled, the special-directory bias. It reads the evolving FileCount
// of directories at dirDepth only, so the parallel pipeline may run one
// worker per depth level: workers for different depths touch disjoint
// directory sets.
func (p *Placer) ChooseParentAt(dirDepth int, rng *stats.RNG) int {
	candidates := p.tree.DirsAtDepth(dirDepth)
	if len(candidates) == 0 {
		// Walk up until a populated depth is found; the root always exists.
		for d := dirDepth - 1; d >= 0; d-- {
			if len(p.tree.DirsAtDepth(d)) > 0 {
				return p.ChooseParentAt(d, rng)
			}
		}
		return 0
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	fen := p.parentFen[dirDepth]
	if fen == nil {
		fen = newFenwick(len(candidates))
		for i, id := range candidates {
			fen.add(i, p.parentWeight(&p.tree.Dirs[id]))
		}
		p.parentFen[dirDepth] = fen
	}
	total := fen.total()
	if total <= 0 {
		return candidates[rng.Intn(len(candidates))]
	}
	idx := fen.find(rng.Float64() * total)
	if idx >= len(candidates) {
		idx = len(candidates) - 1
	}
	return candidates[idx]
}
