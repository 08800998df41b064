package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"impressions/internal/parallel"
)

// The column store. A metadata pass keeps one fixed-width value per file
// and attribute — size, extension code, parent directory — and, while it
// places files, one list of file indices per depth level. A column is N such
// values addressed by the shard geometry the sharded phases already use
// (parallel.Bounds): a phase loads shard s, works on it, and stores it.
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
// same code. What the backing decides is cost, and one thing besides:
// whether two goroutines may patch the same column at once (inPlace).

// value is what a column holds.
type value interface{ float64 | int32 | uint32 }

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

// inPlace reports whether load hands out the column's own memory, so that
// goroutines writing distinct values of one shard cannot lose each other's
// writes. On the file backing each would store its own copy of the block.
func (c *column[T]) inPlace() bool { return c.f == nil }

// rawBlocks are the byte buffers the file backing moves blocks through.
var rawBlocks = sync.Pool{New: func() any { return new([parallel.DefaultShardSize * 8]byte) }}

func (c *column[T]) offset(s int) int64 {
	var zero T
	return int64(s) * parallel.DefaultShardSize * int64(binary.Size(zero))
}

// shard returns where shard s's values go without reading them: the
// column's memory, or buf (grown if it is too small) on the file backing.
func (c *column[T]) shard(s int, buf []T) []T {
	lo, hi := parallel.Bounds(c.n, s)
	if c.f == nil {
		return c.mem[lo:hi]
	}
	if cap(buf) < hi-lo {
		buf = make([]T, parallel.DefaultShardSize)
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

// each visits the shards in index order.
func (c *column[T]) each(visit func(vals []T) error) error {
	var vals []T
	for s := 0; s < parallel.Shards(c.n); s++ {
		var err error
		if vals, err = c.load(s, vals); err != nil {
			return err
		}
		if err := visit(vals); err != nil {
			return err
		}
	}
	return nil
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
	return p.each(func(vals []float64) error {
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
		sz  []float64
		ex  []uint32
		par []int32
		err error
	)
	for s := 0; s < parallel.Shards(sizes.n); s++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		if sz, err = sizes.load(s, sz); err != nil {
			return err
		}
		if exts != nil {
			if ex, err = exts.load(s, ex); err != nil {
				return err
			}
		}
		if par, err = parents.load(s, par); err != nil {
			return err
		}
		if err = visit(s*parallel.DefaultShardSize, sz, ex, par); err != nil {
			return err
		}
	}
	return nil
}
