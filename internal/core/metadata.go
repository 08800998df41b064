package core

import (
	"context"
	"fmt"

	"impressions/internal/clock"
	"impressions/internal/constraint"
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

// EachPlacement walks every file's placement (ID, parent directory, size)
// without materializing records — the compact input for per-shard
// accumulators. On file-backed columns the walk can fail with an I/O error;
// in memory it always returns nil.
func (m *Metadata) EachPlacement(fn func(fileID, dirID int, size int64)) error {
	return scanFiles(context.Background(), m.sizes, nil, m.parents, func(lo int, sizes []float64, _ []uint32, parents []int32) error {
		for k, parent := range parents {
			fn(lo+k, int(parent), roundSize(sizes[k]))
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
	m := &Metadata{spec: g.buildSpec(), phases: map[string]float64{}}

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

// report assembles the reproducibility report for the resolved metadata.
func (m *Metadata) report(cfg Config, achievedLayout float64) fsimage.Report {
	r := fsimage.Report{
		Spec:                m.spec,
		GeneratedAt:         clock.Now(),
		ActualFiles:         m.FileCount(),
		ActualDirs:          m.DirCount(),
		ActualBytes:         m.totalBytes,
		AchievedLayoutScore: achievedLayout,
		Oversamples:         m.convergence.Oversamples,
		PhaseTimes:          m.phases,
	}
	if cfg.FSSizeBytes > 0 {
		r.SumError = abs64(m.totalBytes-cfg.FSSizeBytes) / float64(cfg.FSSizeBytes)
	}
	return r
}

func abs64(v int64) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

// GenerateStream runs the metadata pipeline and emits the resulting records
// directly into sink instead of retaining an image: the out-of-core
// generation path. Only the compact tree and per-file columns are held; the
// sink decides what survives (chunks, digests, statistics, disk — see
// fsimage's RecordSink implementations). Disk-layout simulation needs the
// retained image and is rejected here.
func (g *Generator) GenerateStream(sink fsimage.RecordSink) (fsimage.Report, error) {
	return g.GenerateStreamContext(context.Background(), sink)
}

// GenerateStreamContext is GenerateStream with cancellation: the metadata
// pass honors ctx as in ResolveMetadataContext, and the record replay checks
// ctx between chunks of records so a sink wired to a dead client does not
// stream to nowhere.
func (g *Generator) GenerateStreamContext(ctx context.Context, sink fsimage.RecordSink) (fsimage.Report, error) {
	if g.cfg.SimulateDisk {
		return fsimage.Report{}, fmt.Errorf("core: disk-layout simulation requires the retained path (Generate)")
	}
	m, err := g.ResolveMetadataContext(ctx)
	if err != nil {
		return fsimage.Report{}, err
	}
	defer m.Close()
	if err := m.streamRecords(ctx, sink); err != nil {
		return fsimage.Report{}, err
	}
	return m.report(g.cfg, 1.0), nil
}
