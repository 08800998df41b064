package disk

import (
	"impressions/internal/stats"
)

// Fragmenter drives a Disk towards a target layout score while regular files
// are being created, using the mechanism described in §3.7 of the paper:
// pairs of temporary file creations and deletions interleaved with regular
// file creation punch holes in the free-space map, so subsequent allocations
// become non-contiguous.
//
// A target score of 1.0 disables fragmentation entirely; lower targets
// increase the frequency and size of the temporary create/delete pairs.
type Fragmenter struct {
	disk   *Disk
	target float64
	rng    *stats.RNG

	nextTempID FileID
	tempLive   []FileID
	created    int
	paused     bool
}

// NewFragmenter returns a fragmenter that aims for the given layout score on
// disk. Temporary file IDs are allocated downward from -1 so they can never
// collide with regular (non-negative) file IDs.
func NewFragmenter(d *Disk, targetScore float64, rng *stats.RNG) *Fragmenter {
	if targetScore < 0 {
		targetScore = 0
	}
	if targetScore > 1 {
		targetScore = 1
	}
	return &Fragmenter{disk: d, target: targetScore, rng: rng, nextTempID: -1}
}

// Target returns the target layout score.
func (f *Fragmenter) Target() float64 { return f.target }

// CreateFile creates a regular file on the disk, interleaving temporary
// create/delete pairs as needed to approach the target layout score.
func (f *Fragmenter) CreateFile(id FileID, size int64) error {
	if f.target < 1 && !f.paused {
		f.interleave(size)
	}
	if err := f.disk.Create(id, size); err != nil {
		return err
	}
	f.created++
	// Periodically re-measure and adapt: once the measured score drops to the
	// target, pause the interleaving (and clean up outstanding temporaries so
	// later allocations are contiguous again); if the score drifts back above
	// the target, resume.
	if f.target < 1 && f.created%64 == 0 {
		score := f.disk.LayoutScore()
		if score <= f.target {
			f.paused = true
			f.Cleanup()
		} else {
			f.paused = false
		}
	}
	return nil
}

// interleave creates pairs of temporary files ahead of the incoming file and
// immediately deletes every other one, leaving a striped pattern of one-block
// holes separated by live temporaries. Rewinding the allocation cursor to the
// first hole forces the incoming file to be scattered across those holes,
// which is exactly the fragmentation the create/delete mechanism of §3.7
// induces on a real file system.
//
// The number of hole pairs is sized so that a file of B blocks picks up about
// (1 − target) · (B − 1) discontinuities, i.e. its individual layout score
// lands near the target.
func (f *Fragmenter) interleave(size int64) {
	blocks := f.disk.BlocksFor(size)
	wantDiscontinuities := (1 - f.target) * float64(blocks-1)
	pairs := int(wantDiscontinuities)
	// Carry the fractional part probabilistically so small files fragment
	// some of the time instead of never.
	if frac := wantDiscontinuities - float64(pairs); frac > 0 && f.rng.Float64() < frac {
		pairs++
	}
	if pairs <= 0 {
		return
	}
	if pairs > 256 {
		pairs = 256
	}
	holeSize := f.disk.BlockSize() // one block per hole
	batch := make([]FileID, pairs*2)
	for i := range batch {
		batch[i] = f.nextTempID
		f.nextTempID--
		_ = f.disk.Create(batch[i], holeSize) // a fresh ID: it cannot fail
	}
	firstHole := f.disk.files[batch[0]][0].Start
	for i, id := range batch {
		if i%2 == 0 {
			_ = f.disk.Delete(id)
		} else {
			f.tempLive = append(f.tempLive, id)
		}
	}
	f.disk.SeekCursor(firstHole)
	// Bound the number of live temporaries so the block map stays small; the
	// oldest ones are far behind the cursor and no longer affect layout.
	for len(f.tempLive) > 4096 {
		_ = f.disk.Delete(f.tempLive[0])
		f.tempLive = f.tempLive[1:]
	}
}

// Cleanup deletes any live temporary files. Call it after all regular files
// have been created.
func (f *Fragmenter) Cleanup() {
	for _, id := range f.tempLive {
		_ = f.disk.Delete(id)
	}
	f.tempLive = f.tempLive[:0]
}
