// Package disk simulates the on-disk state of a file system: block
// allocation, per-file block maps, the layout score of Smith and Seltzer that
// §3.7 of the paper uses to quantify fragmentation, a fragmenter that reaches
// a target layout score by issuing temporary create/delete pairs during file
// creation, and a simple seek/transfer cost model used by the workload
// simulators.
//
// The real Impressions tool measures layout on ext2/ext3 through debugfs and
// FIBMAP; this package replaces the physical disk with a simulated block
// device so layout effects are reproducible on any machine and without
// root. The device has no capacity: it grows as next-fit allocation
// reaches its end, so no run fails for want of space and no block position
// depends on a size chosen up front.
package disk

import (
	"errors"
	"fmt"
)

// DefaultBlockSize is the simulated file-system block size in bytes.
const DefaultBlockSize = 4096

// FileID identifies a file on the simulated disk.
type FileID int64

// Extent is a contiguous run of blocks [Start, Start+Length).
type Extent struct {
	Start  int64
	Length int64
}

// Disk is a simulated block device with a next-fit extent allocator. It
// keeps the layout score's two counts as files come and go, so reading the
// score costs nothing.
type Disk struct {
	blockSize int64
	bitmap    []bool // true = allocated; grows on demand
	cursor    int64  // next-fit starting position
	files     map[FileID][]Extent
	// transitions and contiguous sum layoutCounts over the live files.
	transitions, contiguous int64
}

// ErrUnknownFile is returned when an operation references a file that has no
// allocation on the disk.
var ErrUnknownFile = errors.New("disk: unknown file")

// New creates an empty simulated disk with the default 4 KB block size.
func New() *Disk { return NewWithBlockSize(DefaultBlockSize) }

// NewWithBlockSize creates an empty simulated disk with an explicit block
// size; a non-positive size selects the default.
func NewWithBlockSize(blockSize int64) *Disk {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Disk{blockSize: blockSize, files: make(map[FileID][]Extent)}
}

// BlockSize returns the block size in bytes.
func (d *Disk) BlockSize() int64 { return d.blockSize }

// SeekCursor moves the next-fit allocation cursor to the given block
// (negative positions clamp to 0), so the next allocation starts searching
// there. The fragmenter uses this to force subsequent allocations into
// freshly punched holes.
func (d *Disk) SeekCursor(block int64) { d.cursor = max(block, 0) }

// BlocksFor returns the number of blocks needed for a file of size bytes
// (at least one block, as in real file systems other than those with inline
// data).
func (d *Disk) BlocksFor(size int64) int64 {
	if size <= 0 {
		return 1
	}
	return (size + d.blockSize - 1) / d.blockSize
}

// Create allocates blocks for a file of the given size using next-fit extent
// allocation and records its block map. It fails only if the file already
// exists.
func (d *Disk) Create(id FileID, size int64) error {
	if _, exists := d.files[id]; exists {
		return fmt.Errorf("disk: file %d already exists", id)
	}
	extents := d.allocate(d.BlocksFor(size))
	d.files[id] = extents
	t, c := layoutCounts(extents)
	d.transitions += t
	d.contiguous += c
	return nil
}

// Delete frees all blocks belonging to the file.
func (d *Disk) Delete(id FileID) error {
	extents, ok := d.files[id]
	if !ok {
		return ErrUnknownFile
	}
	for _, e := range extents {
		clear(d.bitmap[e.Start : e.Start+e.Length])
	}
	t, c := layoutCounts(extents)
	d.transitions -= t
	d.contiguous -= c
	delete(d.files, id)
	return nil
}

// Extents returns the extent list of a file (nil if unknown).
func (d *Disk) Extents(id FileID) []Extent {
	ext, ok := d.files[id]
	if !ok {
		return nil
	}
	return append([]Extent(nil), ext...)
}

// FileCount returns the number of files currently allocated.
func (d *Disk) FileCount() int { return len(d.files) }

// allocate takes `need` free blocks, searching forward from the next-fit
// cursor and grabbing contiguous runs greedily; fragmented allocations
// produce multiple extents. Past the end of the bitmap every block is free,
// so the search never wraps: it doubles the bitmap instead.
func (d *Disk) allocate(need int64) []Extent {
	var extents []Extent
	pos := d.cursor
	var current *Extent
	for ; need > 0; pos++ {
		if n := int64(len(d.bitmap)); pos >= n {
			d.bitmap = append(d.bitmap, make([]bool, max(n, pos+need-n))...)
		}
		if d.bitmap[pos] {
			current = nil
			continue
		}
		d.bitmap[pos] = true
		need--
		if current != nil && current.Start+current.Length == pos {
			current.Length++
		} else {
			extents = append(extents, Extent{Start: pos, Length: 1})
			current = &extents[len(extents)-1]
		}
	}
	d.cursor = pos
	return extents
}

// layoutCounts returns a file's share of the layout score: its block
// transitions (one fewer than its blocks) and how many of them are
// physically contiguous, all but one per extent boundary, since allocate
// never leaves two extents of a file adjacent.
func layoutCounts(extents []Extent) (transitions, contiguous int64) {
	var blocks int64
	for _, e := range extents {
		blocks += e.Length
	}
	return blocks - 1, blocks - int64(len(extents))
}

// LayoutScore returns the aggregate layout score of the disk: the fraction of
// all block transitions (within files with more than one block) that are
// physically contiguous. An empty disk or one holding only single-block files
// scores 1.0.
func (d *Disk) LayoutScore() float64 {
	if d.transitions == 0 {
		return 1
	}
	return float64(d.contiguous) / float64(d.transitions)
}
