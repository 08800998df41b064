package disk

import (
	"errors"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

// allocatedBlocks counts the blocks the bitmap marks allocated.
func allocatedBlocks(d *Disk) int64 {
	var n int64
	for _, used := range d.bitmap {
		if used {
			n++
		}
	}
	return n
}

// walkLayoutScore is the layout score recomputed from scratch: a walk over
// every block of every file, as the disk computed it before it kept the
// counts as it goes. It is the oracle of the running score.
func walkLayoutScore(d *Disk) float64 {
	var transitions, contiguous int64
	for _, extents := range d.files {
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

func TestDiskCreateDelete(t *testing.T) {
	d := New()
	if err := d.Create(1, 10*4096); err != nil {
		t.Fatal(err)
	}
	if got := allocatedBlocks(d); got != 10 {
		t.Errorf("allocated blocks %d, want 10", got)
	}
	if got := len(d.Extents(1)); got != 1 {
		t.Errorf("fresh allocation should be one extent, got %d", got)
	}
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := allocatedBlocks(d); got != 0 {
		t.Errorf("allocated blocks after delete %d, want 0", got)
	}
	if err := d.Delete(1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("double delete error = %v, want ErrUnknownFile", err)
	}
}

func TestDiskDuplicateCreate(t *testing.T) {
	d := New()
	if err := d.Create(1, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(1, 4096); err == nil {
		t.Error("expected error creating an existing file")
	}
}

func TestDiskZeroSizeFileUsesOneBlock(t *testing.T) {
	d := New()
	if err := d.Create(5, 0); err != nil {
		t.Fatal(err)
	}
	if allocatedBlocks(d) != 1 {
		t.Errorf("zero-size file should use one block")
	}
	if score := d.LayoutScore(); score != 1 {
		t.Errorf("single-block file layout score %g, want 1", score)
	}
}

// TestDiskGrowsWithoutWrapping holds the device to next-fit on an unbounded
// bitmap: files land back to back from block 0 however far they reach, and
// a cursor sought past the end allocates right there.
func TestDiskGrowsWithoutWrapping(t *testing.T) {
	d := New()
	for i := int64(0); i < 100; i++ {
		if err := d.Create(FileID(i), 37*4096); err != nil {
			t.Fatal(err)
		}
		if got, want := d.Extents(FileID(i)), []Extent{{Start: i * 37, Length: 37}}; len(got) != 1 || got[0] != want[0] {
			t.Fatalf("file %d has extents %v, want %v", i, got, want)
		}
	}
	d.SeekCursor(1 << 20)
	if err := d.Create(100, 3*4096); err != nil {
		t.Fatal(err)
	}
	if got := d.Extents(100); len(got) != 1 || got[0] != (Extent{Start: 1 << 20, Length: 3}) {
		t.Errorf("allocation past the end has extents %v, want one at block %d", got, 1<<20)
	}
	if got := allocatedBlocks(d); got != 100*37+3 {
		t.Errorf("allocated blocks %d, want %d", got, 100*37+3)
	}
}

func TestDiskPerfectLayoutScore(t *testing.T) {
	d := New()
	for i := 0; i < 20; i++ {
		if err := d.Create(FileID(i), 8*4096); err != nil {
			t.Fatal(err)
		}
	}
	if score := d.LayoutScore(); score != 1 {
		t.Errorf("sequentially allocated files should score 1.0, got %g", score)
	}
}

func TestDiskFragmentedLayoutScore(t *testing.T) {
	d := New()
	// Allocate interleaved files, delete every other one, then allocate a
	// large file that must be split across the holes.
	for i := 0; i < 40; i++ {
		if err := d.Create(FileID(i), 4*4096); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 2 {
		if err := d.Delete(FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.SeekCursor(0)
	if err := d.Create(1000, 40*4096); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Extents(1000)); got < 2 {
		t.Fatalf("file should be fragmented across holes, extents=%d", got)
	}
	if agg := d.LayoutScore(); agg >= 1 {
		t.Errorf("aggregate layout score %g, want < 1", agg)
	}
}

func TestDiskUsedBytes(t *testing.T) {
	d := New()
	_ = d.Create(1, 3*4096)
	if used := allocatedBlocks(d) * d.BlockSize(); used != 3*4096 {
		t.Errorf("used bytes %d", used)
	}
}

func TestNewWithBlockSize(t *testing.T) {
	d := NewWithBlockSize(512)
	if d.BlockSize() != 512 {
		t.Fatalf("block size %d, want 512", d.BlockSize())
	}
	if err := d.Create(1, 3*4096); err != nil {
		t.Fatal(err)
	}
	if got := allocatedBlocks(d); got != 24 {
		t.Errorf("allocated blocks %d, want 24", got)
	}
	if got := NewWithBlockSize(0).BlockSize(); got != DefaultBlockSize {
		t.Errorf("non-positive block size gave %d, want the default", got)
	}
}

func TestExtentsReturnsACopy(t *testing.T) {
	d := New()
	_ = d.Create(1, 2*4096)
	ext := d.Extents(1)
	ext[0].Length = 99
	if got := d.Extents(1)[0].Length; got != 2 {
		t.Errorf("editing the returned extents changed the disk: length %d", got)
	}
	if d.Extents(7) != nil {
		t.Error("unknown file should have nil extents")
	}
}

func TestBlocksFor(t *testing.T) {
	d := New()
	cases := map[int64]int64{0: 1, 1: 1, 4096: 1, 4097: 2, 8192: 2, 10000: 3}
	for size, want := range cases {
		if got := d.BlocksFor(size); got != want {
			t.Errorf("BlocksFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSeekCursorBounds(t *testing.T) {
	d := New()
	d.SeekCursor(-5)
	if d.cursor != 0 {
		t.Error("negative cursor should clamp to 0")
	}
}

func TestFragmenterReachesTargetScore(t *testing.T) {
	rng := stats.NewRNG(1)
	d := New()
	frag := NewFragmenter(d, 0.8, rng)
	for i := 0; i < 3000; i++ {
		if err := frag.CreateFile(FileID(i), 32*1024); err != nil {
			t.Fatal(err)
		}
	}
	frag.Cleanup()
	score := d.LayoutScore()
	if score > 0.95 {
		t.Errorf("fragmenter left layout score %.3f; expected it near the 0.8 target", score)
	}
	if score < 0.5 {
		t.Errorf("fragmenter overshot badly: %.3f for a 0.8 target", score)
	}
	if d.FileCount() != 3000 {
		t.Errorf("temporary files leaked: %d files on disk", d.FileCount())
	}
}

func TestFragmenterClampsTarget(t *testing.T) {
	d := New()
	for target, want := range map[float64]float64{-0.5: 0, 0: 0, 0.7: 0.7, 1: 1, 1.5: 1} {
		if got := NewFragmenter(d, target, stats.NewRNG(1)).Target(); got != want {
			t.Errorf("target %g became %g, want %g", target, got, want)
		}
	}
}

func TestFragmenterTargetOneIsNoop(t *testing.T) {
	rng := stats.NewRNG(2)
	d := New()
	frag := NewFragmenter(d, 1.0, rng)
	for i := 0; i < 500; i++ {
		if err := frag.CreateFile(FileID(i), 16*1024); err != nil {
			t.Fatal(err)
		}
	}
	frag.Cleanup()
	if score := d.LayoutScore(); score != 1 {
		t.Errorf("layout score %.3f with target 1.0, want exactly 1", score)
	}
}

func TestFragmenterTargetsOrdering(t *testing.T) {
	// Lower targets should produce lower (or equal) measured scores.
	measure := func(target float64) float64 {
		rng := stats.NewRNG(3)
		d := New()
		frag := NewFragmenter(d, target, rng)
		for i := 0; i < 1500; i++ {
			if err := frag.CreateFile(FileID(i), 48*1024); err != nil {
				t.Fatal(err)
			}
		}
		frag.Cleanup()
		return d.LayoutScore()
	}
	high := measure(0.95)
	low := measure(0.5)
	if low > high {
		t.Errorf("layout score for target 0.5 (%.3f) should not exceed target 0.95 (%.3f)", low, high)
	}
}

func TestCostModelApprox(t *testing.T) {
	cm := DefaultCostModel()
	small := cm.ReadBytesCostApprox(100)
	large := cm.ReadBytesCostApprox(10 << 20)
	if small <= 0 || large <= small {
		t.Errorf("approx costs: small=%.3f large=%.3f", small, large)
	}
}

// Property: across arbitrary create/delete sequences, regular and through a
// fragmenter (whose temporaries come and go inside CreateFile and Cleanup),
// the running layout score equals the block walk after every step, stays in
// [0,1], and the bitmap marks exactly the blocks the files hold.
func TestQuickDiskInvariants(t *testing.T) {
	f := func(ops []uint16, seed int64, target uint8) bool {
		d := New()
		frag := NewFragmenter(d, float64(target)/255, stats.NewRNG(seed))
		live := map[FileID]bool{}
		next := FileID(0)
		for _, op := range ops {
			size := int64(op%64+1) * 1024
			switch {
			case op%3 == 0 && len(live) > 0:
				// Delete an arbitrary live file.
				for id := range live {
					if err := d.Delete(id); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			case op%7 == 1:
				frag.Cleanup()
			case op%2 == 0:
				if err := frag.CreateFile(next, size*4); err != nil {
					return false
				}
				live[next] = true
				next++
			default:
				if err := d.Create(next, size); err != nil {
					return false
				}
				live[next] = true
				next++
			}
			score := d.LayoutScore()
			if score != walkLayoutScore(d) || score < 0 || score > 1 {
				return false
			}
			var held int64
			for _, extents := range d.files {
				for _, e := range extents {
					held += e.Length
				}
			}
			if held != allocatedBlocks(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
