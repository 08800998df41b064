// Package workload simulates the UNIX find utility over generated images,
// with a disk cost model, an optional buffer cache, and sensitivity to
// on-disk layout. The simulator is the substrate for reproducing Figure 1 of
// the paper, which shows that namespace structure (flat vs deep trees)
// affects a find traversal as much as fragmentation does.
package workload

import (
	"impressions/internal/disk"
	"impressions/internal/fsimage"
)

// Result summarizes one simulated workload run.
type Result struct {
	// TimeMs is the simulated wall-clock time in milliseconds.
	TimeMs float64
	// DirsVisited is the number of directories traversed.
	DirsVisited int
	// EntriesScanned is the number of directory entries examined.
	EntriesScanned int
	// Seeks is the number of simulated disk seeks charged.
	Seeks float64
}

// FindConfig configures the find simulator.
type FindConfig struct {
	// Cost is the disk cost model (zero value selects the default model).
	Cost disk.CostModel
	// Cached simulates a warm buffer cache: metadata is served from memory
	// and no disk accesses are charged.
	Cached bool
	// MetadataLayoutScore models how well directory and inode blocks are laid
	// out on disk (1.0 = perfect). Lower scores charge extra seeks, the same
	// effect fragmentation has on a real find run.
	MetadataLayoutScore float64
	// CPUPerEntryMs is the in-memory cost of examining one directory entry.
	CPUPerEntryMs float64
	// SiblingLocality is the fraction of a full seek charged when moving
	// between sibling directories (which a real file system usually
	// co-locates); moving to a directory under a different parent always
	// costs a full seek. Default 0.15.
	SiblingLocality float64
}

// normalize fills defaults.
func (c *FindConfig) normalize() {
	if c.Cost == (disk.CostModel{}) {
		c.Cost = disk.DefaultCostModel()
	}
	if c.MetadataLayoutScore <= 0 || c.MetadataLayoutScore > 1 {
		c.MetadataLayoutScore = 1
	}
	if c.CPUPerEntryMs <= 0 {
		// Includes the syscall, dentry and path-handling work find does per
		// entry even when all metadata is already cached.
		c.CPUPerEntryMs = 0.02
	}
	if c.SiblingLocality <= 0 {
		c.SiblingLocality = 0.15
	}
}

// Find simulates "find / -name pattern" over the image: a depth-first
// traversal that reads every directory and examines every entry, charging
// disk costs according to the configuration.
func Find(img *fsimage.Image, cfg FindConfig) Result {
	cfg.normalize()
	var res Result

	// Build children lists for DFS order.
	children := make([][]int, img.Tree.Len())
	for _, d := range img.Tree.Dirs {
		if d.Parent >= 0 {
			children[d.Parent] = append(children[d.Parent], d.ID)
		}
	}
	// Per-directory file counts.
	fileCount := make([]int, img.Tree.Len())
	for _, f := range img.Files {
		fileCount[f.DirID]++
	}

	// Fragmentation penalty: a metadata layout score below 1 means a fraction
	// of metadata block accesses need an extra seek. The multiplier grows
	// steeply because even a few percent of scattered blocks dominate a
	// metadata-heavy scan.
	fragPenalty := 1 + (1-cfg.MetadataLayoutScore)*7

	stack := []int{0}
	prevParent := -2
	for len(stack) > 0 {
		dirID := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dir := img.Tree.Dirs[dirID]
		entries := fileCount[dirID] + dir.SubdirCount
		res.DirsVisited++
		res.EntriesScanned += entries

		if cfg.Cached {
			res.TimeMs += float64(entries+1) * cfg.CPUPerEntryMs
		} else {
			// Reading the directory itself: one positioning operation whose
			// cost depends on locality with the previously visited directory,
			// plus transfer of the directory data blocks, plus stat of every
			// entry (inodes co-located with the directory).
			seekFactor := 1.0
			if dir.Parent == prevParent {
				seekFactor = cfg.SiblingLocality
			}
			seeks := seekFactor * fragPenalty
			res.Seeks += seeks
			dirBlocks := float64(entries)/64 + 1 // ~64 dirents per 4 KB block
			res.TimeMs += seeks*cfg.Cost.SeekMs +
				dirBlocks*cfg.Cost.TransferMsPerBlock +
				float64(entries)*cfg.Cost.MetadataMs*0.12*fragPenalty +
				float64(entries+1)*cfg.CPUPerEntryMs
		}
		prevParent = dir.Parent

		// Push children in reverse so traversal visits them in order.
		kids := children[dirID]
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return res
}
