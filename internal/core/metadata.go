package core

import (
	"context"
	"fmt"
	"math"

	"impressions/internal/clock"
	"impressions/internal/constraint"
	"impressions/internal/disk"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
)

// Metadata is the resolved metadata pass in compact columnar form: the
// directory tree plus one primitive column per file attribute (size,
// extension, parent directory), on the heap or, under Config.SpillDir, in
// temp files (see columns.go). It is what the generation phases actually
// produce — the in-memory fsimage.Image is just one way to consume it.
// Holding columns instead of fsimage.File structs keeps the metadata pass
// free of per-file name allocations and lets consumers choose between
// retaining the image (Image), streaming its records into any
// fsimage.RecordSink (StreamRecords), or walking the placements without
// materializing records at all (EachPlacement) — the planner's route to
// per-shard accumulators with O(chunk) live records.
type Metadata struct {
	tree     *namespace.Tree
	store    *columnStore
	sizes    *column[float64] // the resolver's raw values; roundSize on read
	exts     *column[uint32]  // extension codes; extFor on read
	parents  *column[int32]   // parent directory ID per file
	extNames []string         // the extension table's names, which codes index

	cfg         Config // the generator's, normalized
	spec        fsimage.Spec
	convergence constraint.Result
	phases      map[string]float64
	totalBytes  int64
}

// Close releases the file-backed columns of a spilled metadata pass. It is a
// no-op for in-memory metadata, and after the first call. Streaming
// consumers that resolve metadata themselves must close it when done.
func (m *Metadata) Close() error { return m.store.close() }

// Tree returns the directory tree (shared, not copied).
func (m *Metadata) Tree() *namespace.Tree { return m.tree }

// FileCount returns the number of files.
func (m *Metadata) FileCount() int { return m.sizes.n }

// DirCount returns the number of directories (including the root).
func (m *Metadata) DirCount() int { return m.tree.Len() }

// TotalBytes returns the sum of all file sizes.
func (m *Metadata) TotalBytes() int64 { return m.totalBytes }

// Spec returns the reproducibility spec of the resolved metadata.
func (m *Metadata) Spec() fsimage.Spec { return m.spec }

// Summary is fsimage.Image.Summary without the files: placement left every
// directory its file count, which names the deepest one.
func (m *Metadata) Summary() string {
	maxDepth := 0
	for i := range m.tree.Dirs {
		if d := &m.tree.Dirs[i]; d.FileCount > 0 && d.Depth >= maxDepth {
			maxDepth = d.Depth + 1
		}
	}
	return fsimage.Summary(m.FileCount(), m.DirCount(), m.totalBytes, maxDepth)
}

// EachPlacement walks every file's placement (ID, parent directory, size)
// without materializing records — the compact input for per-shard
// accumulators and the disk simulation — and stops at fn's first error. On
// file-backed columns the walk itself can fail with an I/O error.
func (m *Metadata) EachPlacement(fn func(fileID, dirID int, size int64) error) error {
	return scanFiles(context.Background(), m.sizes, nil, m.parents, func(lo int, sizes []float64, _ []uint32, parents []int32) error {
		for k, parent := range parents {
			if err := fn(lo+k, int(parent), roundSize(sizes[k])); err != nil {
				return err
			}
		}
		return nil
	})
}

// eachFile replays the columns as the canonical file records, each built
// transiently, polling ctx once per shard of records (per-record checks
// would dominate the loop's cost).
func (m *Metadata) eachFile(ctx context.Context, fn func(fsimage.File) error) error {
	return scanFiles(ctx, m.sizes, m.exts, m.parents, func(lo int, sizes []float64, exts []uint32, parents []int32) error {
		for k, parent := range parents {
			ext := m.extFor(exts[k])
			err := fn(fsimage.File{
				ID:    lo + k,
				Name:  fsimage.MakeFileName(lo+k, ext),
				Ext:   normalizeExt(ext),
				Size:  roundSize(sizes[k]),
				DirID: int(parent),
				Depth: m.tree.Dirs[parent].Depth + 1,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// StreamRecords replays the metadata as the canonical record stream —
// Metadata is a fsimage.RecordSource whose live file records are bounded by
// whatever the sink buffers.
func (m *Metadata) StreamRecords(sink fsimage.RecordSink) error {
	return m.streamRecords(context.Background(), sink)
}

func (m *Metadata) streamRecords(ctx context.Context, sink fsimage.RecordSink) error {
	for i := range m.tree.Dirs {
		if i%parallel.DefaultShardSize == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		d := &m.tree.Dirs[i]
		if err := sink.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name, Special: d.Special, Bias: d.Bias}); err != nil {
			return err
		}
	}
	return m.eachFile(ctx, sink.AddFile)
}

// Image materializes the metadata as a retained in-memory image sharing the
// tree. This is the retained-sink path Generate takes; large-scale pipelines
// stream instead.
func (m *Metadata) Image() (*fsimage.Image, error) {
	img := fsimage.New(m.tree)
	img.Files = make([]fsimage.File, m.FileCount())
	img.Spec = m.spec
	err := m.eachFile(context.Background(), func(f fsimage.File) error {
		img.Files[f.ID] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

// ResolveMetadataContext runs the metadata pipeline — directory skeleton,
// constrained file sizes, extensions, placement — and returns the result in
// columnar form without building an image. It is the shared front half of
// Generate and GenerateStream, and the generation side of the fused
// distributed planner. ctx is checked between phases and polled per shard
// inside the sharded phases (extensions and placement), so a server can
// abandon a disconnected client's metadata pass mid-phase. On cancellation
// or error the partial columns are discarded.
func (g *Generator) ResolveMetadataContext(ctx context.Context) (*Metadata, error) {
	cfg := g.cfg
	rng := stats.NewRNG(cfg.Seed)
	m := &Metadata{cfg: cfg, spec: g.buildSpec(), phases: map[string]float64{}}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: directory structure (namespace skeleton), one serial pass.
	start := clock.Now()
	m.tree = namespace.GenerateTree(rng.Fork("namespace"), cfg.NumDirs, cfg.TreeShape)
	if cfg.UseSpecialDirectories {
		m.tree.MarkSpecial(cfg.SpecialDirectories)
	}
	m.phases["directory structure"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The one place the backing is chosen.
	var err error
	if m.store, err = newColumnStore(cfg.SpillDir, g.openColumn); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			m.Close()
		}
	}()

	// Phase 2: file sizes under the sum constraint (§3.4).
	start = clock.Now()
	if m.sizes, err = newColumn[float64](m.store, "sizes.f64", cfg.NumFiles); err != nil {
		return nil, err
	}
	if m.convergence, err = g.resolveSizes(rng.Fork("sizes"), m.sizes); err != nil {
		return nil, err
	}
	m.phases["file sizes distribution"] = seconds(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: extensions from the percentile table (sharded workers).
	start = clock.Now()
	if m.exts, err = newColumn[uint32](m.store, "exts.u32", cfg.NumFiles); err != nil {
		return nil, err
	}
	if m.extNames, err = g.assignExtensions(ctx, rng.Fork("extensions"), m.exts); err != nil {
		return nil, err
	}
	m.phases["popular extensions"] = seconds(start)

	// Phase 4: file depths and parent directories (multiplicative model).
	start = clock.Now()
	if m.parents, err = newColumn[int32](m.store, "parents.i32", cfg.NumFiles); err != nil {
		return nil, err
	}
	if err = g.placeFiles(ctx, m, rng); err != nil {
		return nil, err
	}
	m.phases["file and bytes with depth"] = seconds(start)

	ok = true
	return m, nil
}

// Report runs phase 5, the optional on-disk layout simulation (§3.7), and
// assembles the reproducibility report. The simulated disk is nil unless the
// configuration asked for one.
func (m *Metadata) Report() (fsimage.Report, *disk.Disk, error) {
	r := fsimage.Report{
		Spec:                m.spec,
		ActualFiles:         m.FileCount(),
		ActualDirs:          m.DirCount(),
		ActualBytes:         m.totalBytes,
		AchievedLayoutScore: 1.0,
		Oversamples:         m.convergence.Oversamples,
		PhaseTimes:          m.phases,
	}
	var d *disk.Disk
	if m.cfg.SimulateDisk {
		start := clock.Now()
		var err error
		if d, err = m.simulateDisk(); err != nil {
			return fsimage.Report{}, nil, err
		}
		r.AchievedLayoutScore = d.LayoutScore()
		m.phases["on-disk layout"] = seconds(start)
	}
	r.GeneratedAt = clock.Now()
	if m.cfg.FSSizeBytes > 0 {
		r.SumError = math.Abs(float64(m.totalBytes-m.cfg.FSSizeBytes)) / float64(m.cfg.FSSizeBytes)
	}
	return r, d, nil
}

// simulateDisk allocates every file on a simulated block device, in ID
// order, fragmenting towards the configured layout score. The disk stream is
// forked from a fresh master RNG exactly as the metadata streams are.
func (m *Metadata) simulateDisk() (*disk.Disk, error) {
	d := disk.New(max(m.cfg.DiskCapacityBytes, m.totalBytes*2))
	frag := disk.NewFragmenter(d, m.cfg.LayoutScore, stats.NewRNG(m.cfg.Seed).Fork("disk"))
	err := m.EachPlacement(func(id, _ int, size int64) error {
		if err := frag.CreateFile(disk.FileID(id), size); err != nil {
			return fmt.Errorf("core: allocating file %d on simulated disk: %w", id, err)
		}
		return nil
	})
	frag.Cleanup()
	return d, err
}

// GenerateStream runs the metadata pipeline and emits the resulting records
// directly into sink instead of retaining an image: the out-of-core
// generation path. Only the compact tree and per-file columns are held; the
// sink decides what survives (chunks, digests, statistics, disk — see
// fsimage's RecordSink implementations).
func (g *Generator) GenerateStream(sink fsimage.RecordSink) (fsimage.Report, error) {
	return g.GenerateStreamContext(context.Background(), sink)
}

// GenerateStreamContext is GenerateStream with cancellation: the metadata
// pass honors ctx as in ResolveMetadataContext, and the record replay checks
// ctx between chunks of records so a sink wired to a dead client does not
// stream to nowhere.
func (g *Generator) GenerateStreamContext(ctx context.Context, sink fsimage.RecordSink) (fsimage.Report, error) {
	m, err := g.ResolveMetadataContext(ctx)
	if err != nil {
		return fsimage.Report{}, err
	}
	defer m.Close()
	if err := m.streamRecords(ctx, sink); err != nil {
		return fsimage.Report{}, err
	}
	report, _, err := m.Report()
	return report, err
}
