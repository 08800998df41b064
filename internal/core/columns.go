package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"impressions/internal/parallel"
)

// The column store. A metadata pass keeps one fixed-width value per file
// and attribute — size, extension code, parent directory — and, while it
// places files, one list per depth level of the sizes of the files placed
// there, which the parent pass overwrites with their parents. A column is N
// such values addressed by the shard geometry the sharded phases already
// use (parallel.Bounds): a phase loads shard s, works on it, and stores it.
// Where the shards live is decided once per pass, from Config.SpillDir:
//
//   - on the heap: load hands out the column's own memory and store has
//     nothing to do;
//   - in a temp file under a private directory of SpillDir: shard s is the
//     block at byte s·4096·width, load is one ReadAt of it into the caller's
//     buffer and store one WriteAt, so a pass holds one block per column a
//     worker has in hand and its live heap does not grow with the file count.
//
// Every phase, the record replay and the placement walk are written once
// over load and store, so both backings replay byte-identical records for a
// seed: the values, the RNG streams and the order they are drawn in are the
// same code. What the backing decides is cost alone: goroutines share a
// column only by shard, two never loading or storing the same one, so a
// stored copy of a block never undoes another goroutine's writes to it.

// value is what a column holds.
type value interface {
	float64 | int32 | int64 | uint32
}

// blockFile is what the file backing asks of a column's file. Tests
// substitute one that fails.
type blockFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// columnStore makes a pass's columns, all on one backing.
type columnStore struct {
	dir   string // the pass's private directory; "" keeps the columns on the heap
	open  func(path string) (blockFile, error)
	files []io.Closer
}

// newColumnStore returns a store on the heap when spillDir is empty, else on
// files in a fresh private directory under it. A nil open creates ordinary
// files.
func newColumnStore(spillDir string, open func(string) (blockFile, error)) (*columnStore, error) {
	if spillDir == "" {
		return &columnStore{}, nil
	}
	dir, err := os.MkdirTemp(spillDir, "impressions-spill-")
	if err != nil {
		return nil, fmt.Errorf("core: creating spill directory: %w", err)
	}
	if open == nil {
		open = func(path string) (blockFile, error) { return os.Create(path) }
	}
	return &columnStore{dir: dir, open: open}, nil
}

// close closes every column file and removes the directory. Further calls
// do nothing.
func (st *columnStore) close() error {
	if st.dir == "" {
		return nil
	}
	for _, f := range st.files {
		f.Close()
	}
	dir := st.dir
	st.dir, st.files = "", nil
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("core: removing spill directory: %w", err)
	}
	return nil
}

// column is n values of one attribute. Distinct shards may be loaded and
// stored concurrently; append and flush belong to one goroutine.
type column[T value] struct {
	name string
	n    int
	mem  []T       // heap backing: the whole column
	f    blockFile // file backing
	tail []T       // file backing: values appended since the last whole shard
}

// newColumn makes a column of n values in st. A list starts at n = 0 and
// grows by append.
func newColumn[T value](st *columnStore, name string, n int) (*column[T], error) {
	c := &column[T]{name: name, n: n}
	if st.dir == "" {
		c.mem = make([]T, n)
		return c, nil
	}
	var err error
	if c.f, err = st.open(filepath.Join(st.dir, name)); err != nil {
		return nil, fmt.Errorf("core: creating spill column %s: %w", name, err)
	}
	st.files = append(st.files, c.f)
	return c, nil
}

// newList makes an empty list in st, which append grows; on the heap it
// holds room for capacity values from the start.
func newList[T value](st *columnStore, name string, capacity int) (*column[T], error) {
	c, err := newColumn[T](st, name, 0)
	if err == nil && c.f == nil {
		c.mem = make([]T, 0, capacity)
	}
	return c, err
}

// rawBlocks are the byte buffers the file backing moves blocks through.
var rawBlocks = sync.Pool{New: func() any { return new([parallel.DefaultShardSize * 8]byte) }}

func (c *column[T]) offset(s int) int64 {
	var zero T
	return int64(s) * parallel.DefaultShardSize * int64(binary.Size(zero))
}

// shard returns where shard s's values go without reading them: the
// column's memory, or buf (grown to the column's largest shard if it is too
// small) on the file backing.
func (c *column[T]) shard(s int, buf []T) []T {
	lo, hi := parallel.Bounds(c.n, s)
	if c.f == nil {
		return c.mem[lo:hi]
	}
	if cap(buf) < hi-lo {
		buf = make([]T, min(c.n, parallel.DefaultShardSize))
	}
	return buf[:hi-lo]
}

// load returns shard s's values, in buf on the file backing.
func (c *column[T]) load(s int, buf []T) ([]T, error) {
	vals := c.shard(s, buf)
	if c.f == nil {
		return vals, nil
	}
	raw := rawBlocks.Get().(*[parallel.DefaultShardSize * 8]byte)
	defer rawBlocks.Put(raw)
	b := raw[:binary.Size(vals)]
	if n, err := c.f.ReadAt(b, c.offset(s)); n < len(b) {
		return nil, fmt.Errorf("core: reading spill column %s: %w", c.name, err)
	}
	binary.Decode(b, binary.LittleEndian, vals)
	return vals, nil
}

// store writes vals back as shard s.
func (c *column[T]) store(s int, vals []T) error {
	if c.f == nil {
		return nil
	}
	raw := rawBlocks.Get().(*[parallel.DefaultShardSize * 8]byte)
	defer rawBlocks.Put(raw)
	n, _ := binary.Encode(raw[:], binary.LittleEndian, vals)
	if _, err := c.f.WriteAt(raw[:n], c.offset(s)); err != nil {
		return fmt.Errorf("core: writing spill column %s: %w", c.name, err)
	}
	return nil
}

// append adds v to a list.
func (c *column[T]) append(v T) error {
	if c.f == nil {
		c.mem = append(c.mem, v)
		c.n++
		return nil
	}
	c.tail = append(c.tail, v)
	if len(c.tail) == parallel.DefaultShardSize {
		return c.flush()
	}
	return nil
}

// flush stores what append still holds; it ends the appends to a list.
func (c *column[T]) flush() error {
	if len(c.tail) == 0 {
		return nil
	}
	s := c.n / parallel.DefaultShardSize
	c.n += len(c.tail)
	err := c.store(s, c.tail)
	c.tail = c.tail[:0]
	return err
}

// each visits the shards in index order; a visit that changes shard s's
// values stores them.
func (c *column[T]) each(visit func(s int, vals []T) error) error {
	var vals []T
	for s := 0; s < parallel.Shards(c.n); s++ {
		var err error
		if vals, err = c.load(s, vals); err != nil {
			return err
		}
		if err := visit(s, vals); err != nil {
			return err
		}
	}
	return nil
}

// reader reads a column's values one at a time in index order, a shard at
// a time.
type reader[T value] struct {
	c    *column[T]
	vals []T
	i    int // the index of the next value
}

// next returns the next value; the column must have one.
func (r *reader[T]) next() (T, error) {
	k := r.i % parallel.DefaultShardSize
	if k == 0 {
		var err error
		if r.vals, err = r.c.load(r.i/parallel.DefaultShardSize, r.vals); err != nil {
			var zero T
			return zero, err
		}
	}
	r.i++
	return r.vals[k], nil
}

// poolColumn makes the sizes column the storage the constraint resolver
// draws its pools into (constraint.PoolStorage).
type poolColumn struct{ *column[float64] }

func (p poolColumn) Draw(s int, fill func([]float64)) error {
	vals := p.shard(s, nil)
	fill(vals)
	return p.store(s, vals)
}

func (p poolColumn) Scan(visit func([]float64)) error {
	return p.each(func(_ int, vals []float64) error {
		visit(vals)
		return nil
	})
}

// scanFiles visits the per-file columns together, shard by shard in index
// order, polling ctx between shards; lo is the index of the shard's first
// file. exts may be nil for a walk that needs no extensions.
func scanFiles(ctx context.Context, sizes *column[float64], exts *column[uint32], parents *column[int32],
	visit func(lo int, sizes []float64, exts []uint32, parents []int32) error) error {
	var (
		ex  []uint32
		par []int32
	)
	return sizes.each(func(s int, sz []float64) error {
		err := ctx.Err()
		if err == nil && exts != nil {
			ex, err = exts.load(s, ex)
		}
		if err == nil {
			par, err = parents.load(s, par)
		}
		if err != nil {
			return err
		}
		return visit(s*parallel.DefaultShardSize, sz, ex, par)
	})
}

// storeAt writes vals over the column from index lo, a shard boundary.
func (c *column[T]) storeAt(lo int, vals []T) error {
	var buf []T
	for k := 0; k < len(vals); k += parallel.DefaultShardSize {
		buf = c.shard((lo+k)/parallel.DefaultShardSize, buf)
		copy(buf, vals[k:])
		if err := c.store((lo+k)/parallel.DefaultShardSize, buf); err != nil {
			return err
		}
	}
	return nil
}

// renumbering moves the per-file columns into the canonical order,
// directory-major: by directory, then by draw, so a file's ID is its
// position in it. Placement's ordered pass puts every file, in draw order,
// on the list of the region of whole shards holding its position; finish
// sorts a region at a time in memory and writes it over the columns. A
// region is √shards shards (16 at least): a spilled pass holds one list
// tail per region and one region.
type renumbering struct {
	region      int              // files per region
	next, again []int            // per directory, in each pass: the position of its next file
	lists       []*column[int64] // per region, per file: its size's bits, then directory<<32 | extension code
}

func newRenumbering(m *Metadata) (*renumbering, error) {
	n := m.sizes.n
	r := &renumbering{region: max(16, int(math.Sqrt(float64(parallel.Shards(n))))) * parallel.DefaultShardSize, next: make([]int, m.tree.Len())}
	for d, pos := 0, 0; d < len(r.next); d++ {
		r.next[d], pos = pos, pos+m.tree.Dirs[d].FileCount
	}
	r.again = slices.Clone(r.next)
	for lo := 0; lo < n; lo += r.region {
		l, err := newList[int64](m.store, fmt.Sprintf("region-%d.i64", lo/r.region), 2*min(r.region, n-lo))
		if err != nil {
			return nil, err
		}
		r.lists = append(r.lists, l)
	}
	return r, nil
}

// put takes the next file in draw order.
func (r *renumbering) put(size float64, ext uint32, dir int32) error {
	l := r.lists[r.next[dir]/r.region]
	r.next[dir]++
	return errors.Join(l.append(int64(math.Float64bits(size))), l.append(int64(dir)<<32|int64(ext)))
}

// finish writes the columns of m in directory-major order.
func (r *renumbering) finish(ctx context.Context, m *Metadata) error {
	n := min(m.sizes.n, r.region)
	sizes, exts, parents := make([]float64, n), make([]uint32, n), make([]int32, n)
	for b, l := range r.lists {
		err := errors.Join(ctx.Err(), l.flush())
		if err == nil {
			err = l.each(func(_ int, vals []int64) error {
				for k := 0; k < len(vals); k += 2 {
					dir := vals[k+1] >> 32
					pos := r.again[dir] - b*r.region
					r.again[dir]++
					sizes[pos], exts[pos], parents[pos] = math.Float64frombits(uint64(vals[k])), uint32(vals[k+1]), int32(dir)
				}
				return nil
			})
		}
		if files := l.n / 2; err == nil {
			err = errors.Join(m.sizes.storeAt(b*r.region, sizes[:files]), m.exts.storeAt(b*r.region, exts[:files]), m.parents.storeAt(b*r.region, parents[:files]))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
