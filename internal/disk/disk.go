// Package disk simulates the on-disk state of a file system: block
// allocation, per-file block maps, the layout score of Smith and Seltzer that
// §3.7 of the paper uses to quantify fragmentation, a fragmenter that reaches
// a target layout score by issuing temporary create/delete pairs during file
// creation, and a simple seek/transfer cost model used by the workload
// simulators.
//
// The real Impressions tool measures layout on ext2/ext3 through debugfs and
// FIBMAP; this package replaces the physical disk with a simulated block
// device so layout effects are reproducible anywhere (see DESIGN.md §1).
package disk

import (
	"errors"
	"fmt"
	"sort"
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

// Disk is a simulated block device with a next-fit extent allocator.
type Disk struct {
	blockSize   int64
	totalBlocks int64
	freeBlocks  int64
	bitmap      []bool // true = allocated
	cursor      int64  // next-fit starting position
	files       map[FileID][]Extent
}

// ErrNoSpace is returned when an allocation cannot be satisfied.
var ErrNoSpace = errors.New("disk: no space left on simulated device")

// ErrUnknownFile is returned when an operation references a file that has no
// allocation on the disk.
var ErrUnknownFile = errors.New("disk: unknown file")

// New creates a simulated disk of the given capacity in bytes using the
// default 4 KB block size.
func New(capacityBytes int64) *Disk { return NewWithBlockSize(capacityBytes, DefaultBlockSize) }

// NewWithBlockSize creates a simulated disk with an explicit block size.
func NewWithBlockSize(capacityBytes, blockSize int64) *Disk {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blocks := capacityBytes / blockSize
	if blocks < 1 {
		blocks = 1
	}
	return &Disk{
		blockSize:   blockSize,
		totalBlocks: blocks,
		freeBlocks:  blocks,
		bitmap:      make([]bool, blocks),
		files:       make(map[FileID][]Extent),
	}
}

// BlockSize returns the block size in bytes.
func (d *Disk) BlockSize() int64 { return d.blockSize }

// SeekCursor moves the next-fit allocation cursor to the given block, so the
// next allocation starts searching there. The fragmenter uses this to force
// subsequent allocations into freshly punched holes.
func (d *Disk) SeekCursor(block int64) {
	if block < 0 {
		block = 0
	}
	if block >= d.totalBlocks {
		block = 0
	}
	d.cursor = block
}

// TotalBlocks returns the number of blocks on the device.
func (d *Disk) TotalBlocks() int64 { return d.totalBlocks }

// FreeBlocks returns the number of unallocated blocks.
func (d *Disk) FreeBlocks() int64 { return d.freeBlocks }

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
// allocation and records its block map. It returns ErrNoSpace if the disk is
// full and an error if the file already exists.
func (d *Disk) Create(id FileID, size int64) error {
	if _, exists := d.files[id]; exists {
		return fmt.Errorf("disk: file %d already exists", id)
	}
	need := d.BlocksFor(size)
	if need > d.freeBlocks {
		return ErrNoSpace
	}
	extents, err := d.allocate(need)
	if err != nil {
		return err
	}
	d.files[id] = extents
	return nil
}

// Delete frees all blocks belonging to the file.
func (d *Disk) Delete(id FileID) error {
	extents, ok := d.files[id]
	if !ok {
		return ErrUnknownFile
	}
	for _, e := range extents {
		for b := e.Start; b < e.Start+e.Length; b++ {
			if d.bitmap[b] {
				d.bitmap[b] = false
				d.freeBlocks++
			}
		}
	}
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

// allocate finds `need` blocks starting the search at the next-fit cursor,
// grabbing contiguous runs greedily. Fragmented allocations produce multiple
// extents.
func (d *Disk) allocate(need int64) ([]Extent, error) {
	var extents []Extent
	remaining := need
	scanned := int64(0)
	pos := d.cursor
	var current *Extent
	for remaining > 0 && scanned < d.totalBlocks {
		if !d.bitmap[pos] {
			d.bitmap[pos] = true
			d.freeBlocks--
			remaining--
			if current != nil && current.Start+current.Length == pos {
				current.Length++
			} else {
				extents = append(extents, Extent{Start: pos, Length: 1})
				current = &extents[len(extents)-1]
			}
		} else {
			current = nil
		}
		pos++
		if pos == d.totalBlocks {
			pos = 0
			current = nil
		}
		scanned++
	}
	if remaining > 0 {
		// Roll back the partial allocation.
		for _, e := range extents {
			for b := e.Start; b < e.Start+e.Length; b++ {
				d.bitmap[b] = false
				d.freeBlocks++
			}
		}
		return nil, ErrNoSpace
	}
	d.cursor = pos
	return extents, nil
}

// LayoutScore returns the aggregate layout score of the disk: the fraction of
// all block transitions (within files with more than one block) that are
// physically contiguous. An empty disk or one holding only single-block files
// scores 1.0.
func (d *Disk) LayoutScore() float64 {
	var transitions, contiguous int64
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		extents := d.files[id]
		var prevEnd int64 = -2
		first := true
		for _, e := range extents {
			for b := e.Start; b < e.Start+e.Length; b++ {
				if !first {
					transitions++
					if b == prevEnd+1 {
						contiguous++
					}
				}
				first = false
				prevEnd = b
			}
		}
	}
	if transitions == 0 {
		return 1
	}
	return float64(contiguous) / float64(transitions)
}
