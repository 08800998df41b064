package core

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

// The multiset pins hash what a metadata pass places — each file's
// (directory, size, extension), sorted — and not the order or the names it
// gives the files. A change that only renumbers the files leaves them; one
// that moves a draw does not.
var goldenMultisets = []struct {
	name string
	cfg  Config
	hash string
}{
	{"small model", Config{NumFiles: 30000, NumDirs: 3000, FSSizeBytes: 34406400, FileSizeDist: smallModel(), Seed: 20090225}, "d65878ea4de505eb5b8dcfa76e85e4155208d6391b2f6814e7a1d0b30be551c2"},
	{"special directories", goldenWith(func(c *Config) { c.UseSpecialDirectories = true }), "0ce5853b930ab61db87928232933af37b7f00aeb17397137c58d44361ac919ea"},
	{"8193 files", goldenCount(8193), "093df10a1e12a01f0896c3cd7c2815dd15c69075a0b7c9b1b8f19fc8bafa92e5"},
}

// placedMultiset hashes the sorted (directory ID, size, extension) triples
// of m's files.
func placedMultiset(t *testing.T, m *Metadata) string {
	t.Helper()
	type triple struct {
		dir  int
		size int64
		ext  string
	}
	var files []triple
	sink := fsimage.NewTreeSink(func(f fsimage.File) error {
		files = append(files, triple{f.DirID, f.Size, f.Ext})
		return nil
	})
	if err := m.StreamRecords(sink); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(files, func(a, b triple) int {
		return cmp.Or(cmp.Compare(a.dir, b.dir), cmp.Compare(a.size, b.size), cmp.Compare(a.ext, b.ext))
	})
	h := sha256.New()
	var line []byte
	for _, f := range files {
		line = strconv.AppendInt(line[:0], int64(f.dir), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, f.size, 10)
		line = append(append(append(line, ' '), f.ext...), '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPlacedMultisetPinned(t *testing.T) {
	for _, pin := range goldenMultisets {
		for _, spilled := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/spill=%v/j%d", pin.name, spilled, par), func(t *testing.T) {
					cfg := pin.cfg
					cfg.Parallelism = par
					if spilled {
						cfg.SpillDir = t.TempDir()
					}
					gen, err := NewGenerator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m, err := gen.ResolveMetadataContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					if got := placedMultiset(t, m); got != pin.hash {
						t.Errorf("placed multiset %s, pinned %s", got, pin.hash)
					}
				})
			}
		}
	}
}

// dirMajorSink checks, without a TreeSink, that a replay is directory-major:
// dense IDs in order and directory IDs that never decrease.
type dirMajorSink struct {
	t       *testing.T
	files   int
	lastDir int
	runs    int
}

func (s *dirMajorSink) AddDir(fsimage.DirRecord) error { return nil }

func (s *dirMajorSink) AddFile(f fsimage.File) error {
	if f.ID != s.files {
		s.t.Fatalf("file %d arrived as file %d", f.ID, s.files)
	}
	if f.DirID < s.lastDir {
		s.t.Fatalf("file %d is in directory %d, after a file in directory %d", f.ID, f.DirID, s.lastDir)
	}
	if f.DirID != s.lastDir || s.files == 0 {
		s.runs++
	}
	s.files, s.lastDir = s.files+1, f.DirID
	return nil
}

// TestReplayIsDirectoryMajor: the renumbered columns replay each
// directory's files as one run, at two seeds, on the heap and spilled, over
// enough files to fill several of the renumbering's regions.
func TestReplayIsDirectoryMajor(t *testing.T) {
	for _, seed := range []int64{20090225, 314159} {
		for _, spilled := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/spill=%v", seed, spilled), func(t *testing.T) {
				cfg := goldenCount(200_000)
				cfg.NumDirs, cfg.Seed, cfg.Parallelism = 2000, seed, 2
				if spilled {
					cfg.SpillDir = t.TempDir()
				}
				gen, err := NewGenerator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m, err := gen.ResolveMetadataContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				sink := &dirMajorSink{t: t}
				if err := m.StreamRecords(sink); err != nil {
					t.Fatal(err)
				}
				occupied := 0
				for _, d := range m.Tree().Dirs {
					if d.FileCount > 0 {
						occupied++
					}
				}
				if sink.files != cfg.NumFiles || sink.runs != occupied {
					t.Errorf("%d files in %d runs, want %d in one run per occupied directory (%d)", sink.files, sink.runs, cfg.NumFiles, occupied)
				}
			})
		}
	}
}

// countingDist counts its draws; the metadata pass draws concurrently.
type countingDist struct {
	stats.Distribution
	draws *atomic.Int64
}

func (d countingDist) Sample(rng *stats.RNG) float64 {
	d.draws.Add(1)
	return d.Distribution.Sample(rng)
}

// TestNoSizePlacesTheRawDraw: a config without a size places what the same
// config places when its size is the raw draw's own total — the resolver's
// fast path keeps the very pool the unconstrained pass keeps — at one and
// four workers, on the heap and spilled; and the unconstrained pass draws
// each file's size once.
func TestNoSizePlacesTheRawDraw(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("spill=%v/j%d", spilled, par), func(t *testing.T) {
				resolve := func(cfg Config) (*Metadata, string) {
					cfg.Parallelism = par
					if spilled {
						cfg.SpillDir = t.TempDir()
					}
					gen, err := NewGenerator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m, err := gen.ResolveMetadataContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { m.Close() })
					return m, placedMultiset(t, m)
				}
				var draws atomic.Int64
				cfg := Config{NumFiles: 2*4096 + 5, NumDirs: 800, FileSizeDist: countingDist{smallModel(), &draws}, Seed: 20090225}
				free, freeSet := resolve(cfg)
				if n := draws.Load(); n != int64(cfg.NumFiles) {
					t.Errorf("the pass without a size drew %d sizes for %d files", n, cfg.NumFiles)
				}
				if free.Spec().FSSizeBytes != 0 || free.cfg.FSSizeBytes != 0 {
					t.Errorf("a size of %d bytes was made up", free.cfg.FSSizeBytes)
				}
				cfg.FSSizeBytes = free.TotalBytes()
				sized, sizedSet := resolve(cfg)
				if c := sized.convergence; !c.Converged || c.Oversamples != 0 {
					t.Fatalf("a size at the raw draw's total left the fast path: converged %v after %d oversamples", c.Converged, c.Oversamples)
				}
				if freeSet != sizedSet {
					t.Errorf("placed multiset %s without a size, %s with the raw draw's", freeSet, sizedSet)
				}
			})
		}
	}
}
