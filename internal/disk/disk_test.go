package disk

import (
	"errors"
	"testing"
	"testing/quick"

	"impressions/internal/stats"
)

func TestDiskCreateDelete(t *testing.T) {
	d := New(1 << 20) // 256 blocks
	if d.TotalBlocks() != 256 {
		t.Fatalf("total blocks %d, want 256", d.TotalBlocks())
	}
	if err := d.Create(1, 10*4096); err != nil {
		t.Fatal(err)
	}
	if d.FreeBlocks() != 246 {
		t.Errorf("free blocks %d, want 246", d.FreeBlocks())
	}
	if got := len(d.Extents(1)); got != 1 {
		t.Errorf("fresh allocation should be one extent, got %d", got)
	}
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	if d.FreeBlocks() != 256 {
		t.Errorf("free blocks after delete %d, want 256", d.FreeBlocks())
	}
	if err := d.Delete(1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("double delete error = %v, want ErrUnknownFile", err)
	}
}

func TestDiskDuplicateCreate(t *testing.T) {
	d := New(1 << 20)
	if err := d.Create(1, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(1, 4096); err == nil {
		t.Error("expected error creating an existing file")
	}
}

func TestDiskZeroSizeFileUsesOneBlock(t *testing.T) {
	d := New(1 << 20)
	if err := d.Create(5, 0); err != nil {
		t.Fatal(err)
	}
	if d.FreeBlocks() != d.TotalBlocks()-1 {
		t.Errorf("zero-size file should use one block")
	}
	if score := d.LayoutScore(); score != 1 {
		t.Errorf("single-block file layout score %g, want 1", score)
	}
}

func TestDiskNoSpace(t *testing.T) {
	d := New(64 * 1024) // 16 blocks
	if err := d.Create(1, 20*4096); !errors.Is(err, ErrNoSpace) {
		t.Errorf("expected ErrNoSpace, got %v", err)
	}
	// A failed allocation must not leak blocks.
	if d.FreeBlocks() != d.TotalBlocks() {
		t.Errorf("failed allocation leaked blocks: %d free of %d", d.FreeBlocks(), d.TotalBlocks())
	}
}

func TestDiskPerfectLayoutScore(t *testing.T) {
	d := New(4 << 20)
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
	d := New(4 << 20)
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
	d := New(1 << 20)
	_ = d.Create(1, 3*4096)
	if used := (d.TotalBlocks() - d.FreeBlocks()) * d.BlockSize(); used != 3*4096 {
		t.Errorf("used bytes %d", used)
	}
}

func TestNewWithBlockSize(t *testing.T) {
	d := NewWithBlockSize(1<<20, 512)
	if d.BlockSize() != 512 || d.TotalBlocks() != 2048 {
		t.Fatalf("block size %d, total blocks %d; want 512, 2048", d.BlockSize(), d.TotalBlocks())
	}
	if err := d.Create(1, 3*4096); err != nil {
		t.Fatal(err)
	}
	if d.FreeBlocks() != 2048-24 {
		t.Errorf("free blocks %d, want %d", d.FreeBlocks(), 2048-24)
	}
	if got := NewWithBlockSize(1<<20, 0).BlockSize(); got != DefaultBlockSize {
		t.Errorf("non-positive block size gave %d, want the default", got)
	}
	if got := NewWithBlockSize(100, 4096).TotalBlocks(); got != 1 {
		t.Errorf("a disk smaller than a block has %d blocks, want 1", got)
	}
}

func TestExtentsReturnsACopy(t *testing.T) {
	d := New(1 << 20)
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
	d := New(1 << 20)
	cases := map[int64]int64{0: 1, 1: 1, 4096: 1, 4097: 2, 8192: 2, 10000: 3}
	for size, want := range cases {
		if got := d.BlocksFor(size); got != want {
			t.Errorf("BlocksFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSeekCursorBounds(t *testing.T) {
	d := New(1 << 20)
	d.SeekCursor(-5)
	if d.cursor != 0 {
		t.Error("negative cursor should clamp to 0")
	}
	d.SeekCursor(d.TotalBlocks() + 10)
	if d.cursor != 0 {
		t.Error("out-of-range cursor should wrap to 0")
	}
}

func TestFragmenterReachesTargetScore(t *testing.T) {
	rng := stats.NewRNG(1)
	d := New(512 << 20)
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
	d := New(1 << 20)
	for target, want := range map[float64]float64{-0.5: 0, 0: 0, 0.7: 0.7, 1: 1, 1.5: 1} {
		if got := NewFragmenter(d, target, stats.NewRNG(1)).Target(); got != want {
			t.Errorf("target %g became %g, want %g", target, got, want)
		}
	}
}

func TestFragmenterTargetOneIsNoop(t *testing.T) {
	rng := stats.NewRNG(2)
	d := New(64 << 20)
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
		d := New(256 << 20)
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

// Property: the layout score is always within [0,1] and all blocks are
// conserved across arbitrary create/delete sequences.
func TestQuickDiskInvariants(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		d := New(8 << 20) // 2048 blocks
		live := map[FileID]bool{}
		next := FileID(0)
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				// Delete an arbitrary live file.
				for id := range live {
					if err := d.Delete(id); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			} else {
				size := int64(op%64+1) * 1024
				if err := d.Create(next, size); err == nil {
					live[next] = true
				}
				next++
			}
		}
		score := d.LayoutScore()
		if score < 0 || score > 1 {
			return false
		}
		// Free + allocated blocks must equal the device size.
		var used int64
		for id := range live {
			for _, e := range d.Extents(id) {
				used += e.Length
			}
		}
		return used+d.FreeBlocks() == d.TotalBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
