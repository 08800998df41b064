package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"impressions/internal/stats"
)

// memColumn is a parent column in memory that counts, and can be told to
// fail, the calls a patchWindow makes on it.
type memColumn struct {
	data          []byte
	reads, writes int
	readErr       error
	shortWrites   bool
}

func (c *memColumn) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	if c.readErr != nil {
		return 0, c.readErr
	}
	if n := copy(p, c.data[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (c *memColumn) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	if c.shortWrites {
		return copy(c.data[off:], p[:len(p)/2]), io.ErrShortWrite
	}
	return copy(c.data[off:], p), nil
}

// TestPatchWindowMatchesDirectPatches sweeps depth levels of every density
// over one column, as placeFilesSpill does, and requires the bytes that one
// WriteAt per patch leaves — for columns that end inside a window, on a
// window edge, and just past one — from far fewer calls than patches on the
// dense levels and never more on the sparse ones.
func TestPatchWindowMatchesDirectPatches(t *testing.T) {
	const perWindow = patchWindowBytes / 4
	for _, n := range []int{1, 2, perWindow - 1, perWindow, perWindow + 1, 3*perWindow + 17} {
		rng := stats.NewRNG(int64(n))
		want := make([]byte, n*4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(want[i*4:], ^uint32(0)) // -1: not placed yet
		}
		col := &memColumn{data: bytes.Clone(want)}
		w := patchWindow{f: col, size: int64(n) * 4}
		// Each level takes a share of the entries still unpatched, in
		// ascending order: half, then a tenth, ... then one in 5000.
		level := make([]int, n)
		for i := range level {
			level[i] = -1
		}
		for d, share := range []float64{0.5, 0.1, 0.5, 0.002, 0.0002, 1} {
			patches := 0
			before := col.reads + col.writes
			for i := 0; i < n; i++ {
				if level[i] >= 0 || rng.Float64() >= share {
					continue
				}
				level[i] = d
				v := int32(d*1_000_000 + i)
				binary.LittleEndian.PutUint32(want[i*4:], uint32(v))
				if err := w.put(int64(i), v); err != nil {
					t.Fatalf("n=%d level %d: put(%d): %v", n, d, i, err)
				}
				patches++
			}
			if err := w.flush(); err != nil {
				t.Fatalf("n=%d level %d: flush: %v", n, d, err)
			}
			calls := col.reads + col.writes - before
			if windows := (n + perWindow - 1) / perWindow; calls > patches || calls > 2*windows {
				t.Errorf("n=%d level %d: %d patches cost %d calls over %d windows", n, d, patches, calls, windows)
			}
		}
		if !bytes.Equal(col.data, want) {
			t.Errorf("n=%d: the column patched through the window differs from the one patched entry by entry", n)
		}
	}
}

// TestPatchWindowSurfacesIOErrors: a read that fails, a write that comes up
// short, and an index beyond the column are errors, not silent damage.
func TestPatchWindowSurfacesIOErrors(t *testing.T) {
	boom := errors.New("boom")
	col := &memColumn{data: make([]byte, 4*100), readErr: boom}
	w := patchWindow{f: col, size: 400}
	if err := w.put(3, 1); err != nil {
		t.Fatalf("first patch of a window needs no I/O, got %v", err)
	}
	if err := w.put(5, 1); !errors.Is(err, boom) {
		t.Errorf("read error: got %v, want %v", err, boom)
	}

	for _, patches := range []int{1, 2} { // the lone-patch write and the window write
		col = &memColumn{data: make([]byte, 4*100), shortWrites: true}
		w = patchWindow{f: col, size: 400}
		for i := 0; i < patches; i++ {
			if err := w.put(int64(10*i), 7); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("short write of %d patches: got %v, want %v", patches, err, io.ErrShortWrite)
		}
	}

	w = patchWindow{f: &memColumn{data: make([]byte, 400)}, size: 400}
	for _, i := range []int64{-1, 100, 1 << 40} {
		if err := w.put(i, 1); err == nil {
			t.Errorf("put(%d) on a 100-entry column succeeded", i)
		}
	}
}
