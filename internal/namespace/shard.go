package namespace

import (
	"fmt"
	"sort"
)

// Partition splits a directory tree into disjoint subtree shards for parallel
// processing. Every directory belongs to exactly one shard: that of its
// nearest ancestor-or-self in the partition's cut set, so each shard is a
// forest of subtrees (less the deeper cuts inside them) and two shards never
// share a directory. The root, and whatever else lies above every cut, is
// assigned to shard 0.
//
// Partitioning is deterministic: the same tree and shard count always produce
// the same assignment. Workers may process shards in any order — determinism
// of the generated image comes from per-shard RNG streams, not from shard
// scheduling.
type Partition struct {
	// Shards lists the directory IDs of each shard in ascending ID order
	// (parents before children, since AddDir always assigns increasing IDs).
	Shards [][]int

	dirShard []int   // shard index per directory ID
	roots    [][]int // cut-set roots per shard
}

// ShardWeight estimates the processing cost of one directory; the partitioner
// balances the sum of weights across shards. A nil weight counts each
// directory once.
type ShardWeight func(d *Dir) float64

// PartitionBalanced partitions the tree into exactly shards balanced
// shards by recursively cutting oversized subtrees: candidate cut points
// start at the root's children, and any candidate heavier than the
// per-shard target is replaced by its children plus a singleton item for
// the split directory itself. The resulting pieces — whole subtrees and
// singletons — are LPT-assigned, so even a tree whose weight sits under one
// dominant top-level directory (or a pure chain) spreads across all shards.
//
// The shard count never collapses when the root has few children; shards
// may be empty if the tree is smaller than the shard count. The assignment is deterministic and serialized by
// ShardRoots / PartitionFromRoots; nested cuts are resolved by the
// nearest-ancestor rule of assignByCuts.
func PartitionBalanced(t *Tree, shards int, weight ShardWeight) *Partition {
	if shards < 1 {
		shards = 1
	}
	if weight == nil {
		weight = func(*Dir) float64 { return 1 }
	}
	n := t.Len()
	own := make([]float64, n)
	subtree := make([]float64, n)
	var total float64
	for id := n - 1; id >= 0; id-- {
		own[id] = weight(&t.Dirs[id])
		subtree[id] += own[id]
		total += own[id]
		if id > 0 {
			subtree[t.Dirs[id].Parent] += subtree[id]
		}
	}
	children := make([][]int, n)
	for id := 1; id < n; id++ {
		p := t.Dirs[id].Parent
		children[p] = append(children[p], id)
	}
	target := total / float64(shards)

	// An item is a cut root with the weight it would bring to a shard:
	// a whole subtree, or — once split — the directory alone.
	type item struct {
		id         int
		w          float64
		splittable bool
	}
	items := make([]item, 0, len(children[0]))
	for _, c := range children[0] {
		items = append(items, item{c, subtree[c], true})
	}
	// Iteratively split oversized subtree items. The item cap bounds plan
	// size on pathological trees (e.g. one directory with 10^5 children);
	// it stops further splitting only, and is checked against the list
	// being built so a single wide fan-out cannot blow past it.
	for {
		split := false
		next := items[:0:0]
		for _, it := range items {
			if it.splittable && it.w > target && len(children[it.id]) > 0 &&
				len(next)+len(children[it.id]) <= 64*shards {
				for _, c := range children[it.id] {
					next = append(next, item{c, subtree[c], true})
				}
				next = append(next, item{it.id, own[it.id], false})
				split = true
			} else {
				next = append(next, it)
			}
		}
		items = next
		if !split {
			break
		}
	}

	// Greedy LPT with deterministic tie-breaks (weight desc, ID asc;
	// lightest shard by load, then index).
	sort.Slice(items, func(i, j int) bool {
		if items[i].w != items[j].w {
			return items[i].w > items[j].w
		}
		return items[i].id < items[j].id
	})
	loads := make([]float64, shards)
	roots := make([][]int, shards)
	cutShard := make(map[int]int, len(items))
	for _, it := range items {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		cutShard[it.id] = best
		loads[best] += it.w
		roots[best] = append(roots[best], it.id)
	}
	for s := range roots {
		sort.Ints(roots[s])
	}
	p := &Partition{
		Shards:   make([][]int, shards),
		dirShard: make([]int, n),
		roots:    roots,
	}
	assignByCuts(t, p, cutShard)
	return p
}

// assignByCuts fills a partition's per-directory assignment from a cut set:
// a cut directory takes its recorded shard, every other directory inherits
// its parent's (parents have smaller IDs, so one forward sweep suffices).
// Directories above every cut — the spine, including the root — inherit
// shard 0 from the root transitively.
func assignByCuts(t *Tree, p *Partition, cutShard map[int]int) {
	for id := 0; id < t.Len(); id++ {
		s := 0
		if id > 0 {
			if cs, ok := cutShard[id]; ok {
				s = cs
			} else {
				s = p.dirShard[t.Dirs[id].Parent]
			}
		}
		p.dirShard[id] = s
		p.Shards[s] = append(p.Shards[s], id)
	}
}

// ShardRoots returns the cut-set subtree roots owned by shard s, in
// ascending ID order. Together with the tree, these lists fully determine
// the partition — they are its compact serializable form, recorded in
// distributed plan files and rebuilt on the worker side with
// PartitionFromRoots.
func (p *Partition) ShardRoots(s int) []int { return p.roots[s] }

// PartitionFromRoots rebuilds a partition from an explicit per-shard list
// of cut-set subtree roots: every directory belongs to the shard of its
// nearest ancestor-or-self in the cut set, and directories above every cut
// (the spine, including the tree root) belong to shard 0. It validates that
// the listed IDs exist and that no directory is claimed by two shards. This
// is the worker-side counterpart of ShardRoots: a plan produced on one
// machine is reconstructed bit-identically on another.
func PartitionFromRoots(t *Tree, rootsPerShard [][]int) (*Partition, error) {
	n := t.Len()
	shardCount := len(rootsPerShard)
	if shardCount < 1 {
		return nil, fmt.Errorf("namespace: partition needs at least one shard")
	}
	cutShard := make(map[int]int, n)
	roots := make([][]int, shardCount)
	for s, rs := range rootsPerShard {
		for _, r := range rs {
			if r < 1 || r >= n {
				return nil, fmt.Errorf("namespace: shard %d lists unknown directory %d", s, r)
			}
			if prev, dup := cutShard[r]; dup {
				return nil, fmt.Errorf("namespace: subtree %d assigned to both shard %d and shard %d", r, prev, s)
			}
			cutShard[r] = s
		}
		roots[s] = append([]int(nil), rs...)
		sort.Ints(roots[s])
	}
	p := &Partition{
		Shards:   make([][]int, shardCount),
		dirShard: make([]int, n),
		roots:    roots,
	}
	assignByCuts(t, p, cutShard)
	return p, nil
}

// ShardAccumulator tallies per-shard file counts and byte totals as file
// placements stream by — the compact planner-side replacement for walking a
// retained file slice. The planner, the streaming plan encoder, and the
// shard-pruning plan decoder all fold the same stream of (directory, size)
// placements through one of these and compare the totals.
type ShardAccumulator struct {
	part  *Partition
	files []int
	bytes []int64
}

// NewShardAccumulator returns an empty accumulator over the partition.
func NewShardAccumulator(p *Partition) *ShardAccumulator {
	return &ShardAccumulator{part: p, files: make([]int, p.Len()), bytes: make([]int64, p.Len())}
}

// Add tallies one file placed in dirID with the given size.
func (a *ShardAccumulator) Add(dirID int, size int64) {
	s := a.part.ShardOf(dirID)
	a.files[s]++
	a.bytes[s] += size
}

// Files returns the file count tallied for shard s.
func (a *ShardAccumulator) Files(s int) int { return a.files[s] }

// Bytes returns the byte total tallied for shard s.
func (a *ShardAccumulator) Bytes(s int) int64 { return a.bytes[s] }

// ShardOf returns the shard index owning the given directory ID.
func (p *Partition) ShardOf(dirID int) int {
	if dirID < 0 || dirID >= len(p.dirShard) {
		return 0
	}
	return p.dirShard[dirID]
}

// Len returns the number of shards.
func (p *Partition) Len() int { return len(p.Shards) }
