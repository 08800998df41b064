package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"impressions/internal/fsimage"
	"impressions/internal/parallel"
)

// TestColumnBackingsAgree drives the column primitive directly: shards
// stored out of order and a list grown by append read back the same from the
// heap and from a file, for lengths that end a column on a lone value, just
// short of, on and just past a shard edge, and one value into a third shard.
func TestColumnBackingsAgree(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 8193} {
		var read [2][]int32
		for b, spill := range []string{"", t.TempDir()} {
			st, err := newColumnStore(spill, nil)
			if err != nil {
				t.Fatal(err)
			}
			col, err := newColumn[int32](st, "col.i32", n)
			if err != nil {
				t.Fatal(err)
			}
			if col.inPlace() != (spill == "") {
				t.Errorf("n=%d spill=%q: inPlace() = %v", n, spill, col.inPlace())
			}
			for s := parallel.Shards(n) - 1; s >= 0; s-- {
				vals := col.shard(s, nil)
				for k := range vals {
					vals[k] = int32(s*1_000_000 + k)
				}
				if err := col.store(s, vals); err != nil {
					t.Fatal(err)
				}
			}
			list, err := newColumn[int32](st, "list.i32", 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := list.append(int32(-i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := list.flush(); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*column[int32]{col, list} {
				if c.n != n {
					t.Errorf("n=%d spill=%q: column %s holds %d values", n, spill, c.name, c.n)
				}
				err := c.each(func(vals []int32) error {
					read[b] = append(read[b], vals...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
		}
		if len(read[0]) != 2*n || !reflect.DeepEqual(read[0], read[1]) {
			t.Errorf("n=%d: the heap returned %d values, the file %d, or they differ", n, len(read[0]), len(read[1]))
		}
	}
}

// fault names one call on one spilled column's file — the at-th ReadAt or
// WriteAt, counted from 1, on the columns whose name starts with column —
// and what happens instead of it.
type fault struct {
	stage  string
	column string
	write  bool
	at     int
}

// The stages of a pass, each by a call only it makes: the resolver's draw
// writes the sizes column, the extension draw writes the codes, pass 1 is
// the first to write parents and the commit loop the first to read them,
// pass 2 alone reads the depth lists, and only a replay reads the codes.
var faultStages = []fault{
	{stage: "sizes", column: "sizes.f64", write: true, at: 2},
	{stage: "sizes, summing the draw", column: "sizes.f64", at: 1},
	{stage: "extensions", column: "exts.u32", write: true, at: 3},
	{stage: "pass 1", column: "parents.i32", write: true, at: 1},
	{stage: "commit", column: "parents.i32", at: 2},
	{stage: "pass 2, reading a level", column: "depth-", at: 1},
	{stage: "pass 2, patching a block", column: "parents.i32", write: true, at: 5},
	{stage: "replay", column: "exts.u32", at: 2},
}

// faultyFiles opens column files that count their calls and, at the fault,
// call trip in place of the real ReadAt or WriteAt.
type faultyFiles struct {
	fault
	trip func(f blockFile, p []byte, off int64) (int, error)

	mu      sync.Mutex
	calls   int
	tripped bool
}

func (ff *faultyFiles) open(path string) (blockFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	name := path[strings.LastIndexByte(path, '/')+1:]
	return &faultyFile{File: f, watched: strings.HasPrefix(name, ff.column), ff: ff}, nil
}

type faultyFile struct {
	*os.File
	watched bool
	ff      *faultyFiles
}

func (f *faultyFile) hit(write bool) bool {
	if !f.watched || write != f.ff.write {
		return false
	}
	f.ff.mu.Lock()
	defer f.ff.mu.Unlock()
	f.ff.calls++
	if f.ff.calls != f.ff.at {
		return false
	}
	f.ff.tripped = true
	return true
}

func (f *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	if f.hit(false) {
		return f.ff.trip(f.File, p, off)
	}
	return f.File.ReadAt(p, off)
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.hit(true) {
		return f.ff.trip(f.File, p, off)
	}
	return f.File.WriteAt(p, off)
}

type discardSink struct{}

func (discardSink) AddDir(fsimage.DirRecord) error { return nil }
func (discardSink) AddFile(fsimage.File) error     { return nil }

// faultConfig spreads 12 305 files over four shards, the last one short;
// with the small size model the resolver keeps its raw draw, so the sizes
// stage is the draw and the sum and nothing else.
func faultConfig(spill string, parallelism int) Config {
	cfg := goldenCount(3*parallel.DefaultShardSize + 17)
	cfg.SpillDir, cfg.Parallelism = spill, parallelism
	return cfg
}

// checkNothingLeft: the private spill directory is gone and no goroutine of
// the pass outlives it.
func checkNothingLeft(t *testing.T, spill string, goroutines int) {
	t.Helper()
	if left, _ := os.ReadDir(spill); len(left) > 0 {
		t.Errorf("%s is still in the spill directory", left[0].Name())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines, %d before the pass", n, goroutines)
	}
}

// TestSpillFileFaults: a column file that fails, or comes up short, at a
// call inside each stage of a spilled pass makes ResolveMetadataContext (or,
// for the replay, StreamRecords) return an error that wraps the cause and
// names the column, with the spill directory removed, Close idempotent and
// no goroutine left — at Parallelism 1 and 4.
func TestSpillFileFaults(t *testing.T) {
	boom := errors.New("boom")
	for _, stage := range faultStages {
		for _, kind := range []string{"error", "short"} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/j%d", stage.stage, kind, par), func(t *testing.T) {
					cause := boom
					trip := func(blockFile, []byte, int64) (int, error) { return 0, boom }
					if kind == "short" {
						// Half the block is written, or read, and the call says so.
						cause = io.ErrUnexpectedEOF
						trip = func(f blockFile, p []byte, off int64) (int, error) {
							n, _ := f.ReadAt(p[:len(p)/2], off)
							return n, cause
						}
						if stage.write {
							cause = io.ErrShortWrite
							trip = func(f blockFile, p []byte, off int64) (int, error) {
								n, _ := f.WriteAt(p[:len(p)/2], off)
								return n, cause
							}
						}
					}
					spill := t.TempDir()
					goroutines := runtime.NumGoroutine()
					gen, err := NewGenerator(faultConfig(spill, par))
					if err != nil {
						t.Fatal(err)
					}
					ff := &faultyFiles{fault: stage, trip: trip}
					gen.openColumn = ff.open
					m, err := gen.ResolveMetadataContext(context.Background())
					if stage.stage == "replay" {
						if err != nil {
							t.Fatalf("ResolveMetadataContext: %v", err)
						}
						err = m.StreamRecords(discardSink{})
						for i := 0; i < 2; i++ {
							if cerr := m.Close(); cerr != nil {
								t.Errorf("Close #%d: %v", i+1, cerr)
							}
						}
					} else if m != nil {
						t.Error("ResolveMetadataContext returned metadata with its error")
					}
					if !ff.tripped {
						t.Fatalf("the fault never fired: %d %s calls", ff.calls, stage.column)
					}
					if !errors.Is(err, cause) {
						t.Errorf("got %v, want an error wrapping %v", err, cause)
					}
					if err != nil && !strings.Contains(err.Error(), stage.column) {
						t.Errorf("%q does not name the column %s", err, stage.column)
					}
					checkNothingLeft(t, spill, goroutines)
				})
			}
		}
	}
}

// TestSpillCancelledMidStage: a context cancelled at a call inside each
// stage, the replay included, ends GenerateStreamContext with the context's
// error and nothing left behind.
func TestSpillCancelledMidStage(t *testing.T) {
	for _, stage := range faultStages {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", stage.stage, par), func(t *testing.T) {
				spill := t.TempDir()
				goroutines := runtime.NumGoroutine()
				gen, err := NewGenerator(faultConfig(spill, par))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ff := &faultyFiles{fault: stage, trip: func(f blockFile, p []byte, off int64) (int, error) {
					cancel()
					if stage.write {
						return f.WriteAt(p, off)
					}
					return f.ReadAt(p, off)
				}}
				gen.openColumn = ff.open
				_, err = gen.GenerateStreamContext(ctx, discardSink{})
				if !ff.tripped {
					t.Fatalf("the context was never cancelled: %d %s calls", ff.calls, stage.column)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("got %v, want %v", err, context.Canceled)
				}
				checkNothingLeft(t, spill, goroutines)
			})
		}
	}
}
