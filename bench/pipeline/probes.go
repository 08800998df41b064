package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"impressions"
	"impressions/internal/constraint"
	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// tracedPass measures one workload layer by layer: a root span around the
// workload's own command, and under it one span per probe. End-to-end
// numbers are never taken from here.
type tracedPass struct {
	e       *env
	t       *tracer
	w       workload
	s       spec              // the workload's spec at this scale
	refs    map[string]string // spec name -> reference digest, as far as known
	dir     string
	root    *span
	metrics map[string]float64
	budget  []budgetRow
	// open collects why the budget does not close; see workloadDoc.BudgetOpen.
	open []string
	// kept are the pass's spans in the order a round makes them, and seq is
	// how far the round under way has come; see keep.
	kept []*span
	seq  int
	// attempted and failed count the commands the pass ran and checked.
	attempted, failed int

	// What the probes every workload shares leave for its budget.
	cfg  core.Config    // the spec, normalized as the generator sees it
	meta *core.Metadata // the metadata pass's columns: spilled on plan_meta
	// src is what the command streams its records from, and so what the
	// stream passes replay: the retained image in a single-process command,
	// the metadata columns in plan and distrun.
	src interface {
		StreamRecords(fsimage.RecordSink) error
	}
	files     []fsimage.File // empty on plan_meta
	bytes     int64
	metadata  *span // the metadata pass the command makes (spilled on plan_meta)
	generated *span // the retained generation of a single-process command
	stream    *span
	treesink  *span
	encode    *span
	content   *span
}

// set records a layer metric. A ratio over a duration below the clock's
// resolution is undefined; it is left out, like a layer that did not run.
func (p *tracedPass) set(name string, v float64) {
	if _, ok := findLayerMetric(name); !ok {
		panic("bench/pipeline: " + name + " is not in the layer catalogue")
	}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		p.metrics[name] = v
	}
}

// values is the pass's metrics with their units.
func (p *tracedPass) values() map[string]layerValue {
	out := map[string]layerValue{}
	for name, v := range p.metrics {
		m, _ := findLayerMetric(name)
		out[name] = layerValue{Unit: m.Unit, Value: v}
	}
	return out
}

// traceReps is how many rounds the traced pass makes. A round measures
// everything once, the root command and each probe alike, in a fixed order,
// and every span keeps its fastest round. The budget is made of differences
// between measurements, interference from the machine only ever adds time,
// and so the minimum is the estimate that differences survive best; it is
// one estimator for the root and for every span under it. The repetitions of
// one span lie a whole round apart, so a slow spell of the machine has to
// outlast a round to reach two of them.
const traceReps = 3

// keep files the span just measured as the next one of the round. In the
// first round that adds it to the trace; in a later one it replaces, in
// place, the span kept at this point of the round if it is faster (a derived
// span, computed from the spans kept so far, always replaces).
func (p *tracedPass) keep(s *span) *span {
	if p.seq == len(p.kept) {
		p.kept = append(p.kept, p.t.add(s))
	} else if k := p.kept[p.seq]; s.Derived || s.seconds() < k.seconds() {
		s.ID, s.Parent = k.ID, k.Parent
		*k = *s
	}
	p.seq++
	return p.kept[p.seq-1]
}

// best makes one measurement of the round.
func (p *tracedPass) best(measure func() (*span, error)) (*span, error) {
	s, err := measure()
	if err != nil {
		return nil, err
	}
	return p.keep(s), nil
}

// bestOf makes a measurement whose steps are spans of their own.
func (p *tracedPass) bestOf(steps func() ([]*span, error)) ([]*span, error) {
	spans, err := steps()
	if err != nil {
		return nil, err
	}
	for i, s := range spans {
		spans[i] = p.keep(s)
	}
	return spans, nil
}

// derived files a span of a known duration, placed at the start of at.
func (p *tracedPass) derived(at *span, name string, d float64, count int64, unit string) *span {
	return p.keep(&span{Name: name, Workload: at.Workload, Start: at.Start, End: at.Start + seconds(d), Count: count, Unit: unit, Derived: true})
}

// span measures fn, which must be repeatable.
func (p *tracedPass) span(name string, fn func(*span) error) (*span, error) {
	return p.best(func() (*span, error) { return p.t.measure(p.w.Name, name, fn) })
}

// minus is the difference of two measurements that the budget takes for a
// duration. Noise can make it negative; it then counts as 0, and unless that
// hides less than a hundredth of the command's wall-clock the budget is
// reported as not closed.
func (p *tracedPass) minus(what string, a, b float64) float64 {
	if a >= b {
		return a - b
	}
	if b-a > 0.01*p.root.seconds() {
		p.open = append(p.open, fmt.Sprintf("%s came out negative (%.4f s) and counts as 0", what, a-b))
	}
	return 0
}

func (p *tracedPass) records() int64 { return int64(p.cfg.NumFiles + p.cfg.NumDirs) }

// Results the compiler must not prove unused.
var (
	sinkU64 uint64
	sinkF64 float64
)

type noopSink struct{}

func (noopSink) AddDir(fsimage.DirRecord) error { return nil }
func (noopSink) AddFile(fsimage.File) error     { return nil }

// fileFunc is a RecordSink that hands every file record to a function.
type fileFunc func(fsimage.File) error

func (fileFunc) AddDir(fsimage.DirRecord) error  { return nil }
func (fn fileFunc) AddFile(f fsimage.File) error { return fn(f) }

// liveHeapMiB is the heap still reachable after a collection. A sync.Pool
// (the content engine's blocks) lets go of its items over two cycles.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mbPerS(bytes int64, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

// common runs the in-process probes every workload shares, on its spec.
func (p *tracedPass) common() error {
	gen, err := core.NewGenerator(p.s.config(p.e.seed))
	if err != nil {
		return err
	}
	p.cfg = gen.Config()
	p.probeDraws()
	p.probeSkeleton()
	if err := p.probeResolve(); err != nil {
		return err
	}
	if err := p.probeMetadata(); err != nil {
		return err
	}
	p.src = p.meta
	if k := p.w.kind; k == kindTar || k == kindSquashfs || k == kindDir {
		if err := p.probeGenerate(); err != nil {
			return err
		}
	}
	if err := p.probeStreams(); err != nil {
		return err
	}
	if p.w.kind == kindPlan {
		return nil // no content is ever made from this spec
	}
	return p.probeContent()
}

// probeDraws times the stats layer: raw draws, an alias table the size of
// the extension table, and this spec's file-size model.
func (p *tracedPass) probeDraws() {
	draws := int(max(1e5, min(1e7, 1e7*p.e.scale)))
	rng := stats.NewRNG(p.e.seed).Fork("bench/draws")
	alias := stats.NewAliasTable([]float64{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, d := range []struct {
		name string
		draw func()
	}{
		{"stats.rng", func() { sinkU64 += rng.Uint64() }},
		{"stats.alias", func() { sinkU64 += uint64(alias.Sample(rng)) }},
		{"stats.filesize", func() { sinkF64 += p.cfg.FileSizeDist.Sample(rng) }},
	} {
		s, _ := p.span(d.name, func(s *span) error {
			for i := 0; i < draws; i++ {
				d.draw()
			}
			s.did(int64(draws), "draws")
			return nil
		})
		p.set(d.name+"_ns_per_draw", s.seconds()*1e9/float64(draws))
	}
}

// probeSkeleton builds the namespace at the spec's directory count, at the
// command's parallelism and serially.
func (p *tracedPass) probeSkeleton() {
	build := func(name string, workers int) *span {
		s, _ := p.span(name, func(s *span) error {
			tree := namespace.GenerateTreeParallel(stats.NewRNG(p.e.seed).Fork("namespace"), p.cfg.NumDirs, p.cfg.TreeShape, workers)
			s.did(int64(tree.Len()), "dirs")
			return nil
		})
		return s
	}
	parallel, serial := build("namespace.skeleton", jobs), build("namespace.skeleton_serial", 1)
	p.set("namespace.skeleton_s", parallel.seconds())
	p.set("namespace.dirs_per_s", float64(p.cfg.NumDirs)/parallel.seconds())
	p.set("namespace.skeleton_par_speedup", serial.seconds()/parallel.seconds())
}

// probeResolve is the size resolution core makes for this spec.
func (p *tracedPass) probeResolve() error {
	var res constraint.Result
	s, err := p.span("constraint.resolve", func(s *span) error {
		r := constraint.NewResolver(stats.NewRNG(p.e.seed).Fork("sizes"))
		r.SetParallelism(jobs)
		s.did(int64(p.cfg.NumFiles), "files")
		var err error
		res, err = r.Resolve(constraint.Problem{N: p.cfg.NumFiles, TargetSum: float64(p.cfg.FSSizeBytes),
			Dist: p.cfg.FileSizeDist, Beta: p.cfg.Beta, Lambda: p.cfg.Lambda})
		return err
	})
	if err != nil {
		return err
	}
	p.set("constraint.resolve_s", s.seconds())
	p.set("constraint.oversamples", float64(res.Oversamples))
	p.set("constraint.final_beta", res.FinalBeta)
	return nil
}

// resolve is one metadata pass, kept, with the live heap it holds.
func (p *tracedPass) resolve(name string, cfg core.Config) (*core.Metadata, *span, float64, error) {
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	before := liveHeapMiB()
	var m *core.Metadata
	s, err := p.span(name, func(s *span) error {
		if m != nil {
			m.Close() // a repetition replaces the pass before it
		}
		s.did(p.records(), "records")
		var err error
		m, err = gen.ResolveMetadataContext(p.e.ctx)
		return err
	})
	return m, s, liveHeapMiB() - before, err
}

// probeMetadata is core's pass in memory, and spilled where the command
// spills, with the phase times the program reports for the same pass.
func (p *tracedPass) probeMetadata() (err error) {
	cfg := p.s.config(p.e.seed)
	var heap float64
	if p.meta, p.metadata, heap, err = p.resolve("core.metadata", cfg); err != nil {
		return err
	}
	p.set("core.metadata_s", p.metadata.seconds())
	p.set("core.live_heap_mb", heap)
	if p.w.kind == kindPlan {
		// The command never holds the columns; neither does the rest of
		// this pass.
		p.meta.Close()
		cfg.SpillDir = filepath.Join(p.dir, "spill")
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return err
		}
		if p.meta, p.metadata, heap, err = p.resolve("core.metadata_spill", cfg); err != nil {
			return err
		}
		p.set("core.metadata_spill_s", p.metadata.seconds())
		p.set("core.live_heap_spill_mb", heap)
	}
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return err
	}
	// The phase times are the program's own account of a metadata pass, and
	// the only public way to them is the report of a whole streamed
	// generation: they are sub-intervals of that pass, not of core.metadata
	// above, so they are listed beside the budget, from the repetition kept.
	streamed, err := p.span("core.generate_stream", func(s *span) error {
		s.did(p.records(), "records")
		rep, err := gen.GenerateStreamContext(p.e.ctx, noopSink{})
		s.aux = rep
		return err
	})
	if err != nil {
		return err
	}
	for _, ph := range []struct{ name, key string }{
		{"core.phase_dirs", "directory structure"},
		{"core.phase_sizes", "file sizes distribution"},
		{"core.phase_exts", "popular extensions"},
		{"core.phase_place", "file and bytes with depth"},
	} {
		d, ok := streamed.aux.(fsimage.Report).PhaseTimes[ph.key]
		if !ok {
			return fmt.Errorf("the report has no phase time %q", ph.key)
		}
		p.set(ph.name+"_s", d)
		p.derived(streamed, ph.name, d, 0, "")
	}
	return nil
}

// pass streams the records into a metadata sink, made afresh for every
// repetition, and then calls what the sink returned with it.
func (p *tracedPass) pass(name string, sink func(*span) (fsimage.RecordSink, func() error)) (*span, error) {
	return p.span(name, func(s *span) error {
		s.did(p.records(), "records")
		to, finish := sink(s)
		if err := p.src.StreamRecords(to); err != nil {
			return err
		}
		return finish()
	})
}

// probeStreams replays the records into each metadata sink, starting with
// none, and round-trips them through the chunk codec.
func (p *tracedPass) probeStreams() (err error) {
	nothing := func() error { return nil }
	if p.stream, err = p.pass("core.stream", func(*span) (fsimage.RecordSink, func() error) { return noopSink{}, nothing }); err != nil {
		return err
	}
	p.set("core.stream_s", p.stream.seconds())
	if p.treesink, err = p.pass("fsimage.treesink", func(*span) (fsimage.RecordSink, func() error) {
		tree := fsimage.NewTreeSink(nil)
		return tree, func() error { p.bytes = tree.TotalBytes(); return nil }
	}); err != nil {
		return err
	}
	p.set("fsimage.treesink_s", p.treesink.seconds())

	// Every sealed chunk is serialized as the plan does and decoded again at
	// once, so only one chunk is ever held; the decoder's share of the pass
	// is accumulated at the emit boundary.
	var encoded int64
	codec, err := p.pass("fsimage.chunk_codec", func(s *span) (fsimage.RecordSink, func() error) {
		encoded = 0
		dec := fsimage.NewChunkDecoder(fsimage.NewTreeSink(nil))
		enc := fsimage.NewChunkEncoder(0, func(c *fsimage.Chunk) error {
			raw, err := json.Marshal(c)
			if err != nil {
				return err
			}
			encoded += int64(len(raw))
			begin := time.Now()
			defer func() { s.inner += time.Since(begin) }()
			var back fsimage.Chunk
			if err := json.Unmarshal(raw, &back); err != nil {
				return err
			}
			return dec.AddChunk(&back)
		})
		return enc, func() error {
			if err := enc.Close(); err != nil {
				return err
			}
			if enc.ChainHash() != dec.ChainHash() {
				return errors.New("the decoded chunk chain differs from the encoded one")
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	decode := p.derived(codec, "fsimage.chunk_decode", codec.inner.Seconds(), p.records(), "records")
	p.encode = p.derived(codec, "fsimage.chunk_encode", p.minus("fsimage.chunk_codec - fsimage.chunk_decode", codec.seconds(), decode.seconds()), p.records(), "records")
	p.set("fsimage.chunk_encode_s", p.encode.seconds())
	p.set("fsimage.chunk_decode_s", decode.seconds())
	p.set("fsimage.chunk_bytes_per_record", float64(encoded)/float64(p.records()))
	return nil
}

// probeContent times content and SHA-256 in isolation over the spec's own
// files: the ceilings the sinks are compared with.
func (p *tracedPass) probeContent() (err error) {
	p.files = make([]fsimage.File, 0, p.cfg.NumFiles)
	if err := p.src.StreamRecords(fileFunc(func(f fsimage.File) error { p.files = append(p.files, f); return nil })); err != nil {
		return err
	}
	reg := content.NewRegistry(content.KindDefault)
	base := stats.NewRNG(p.e.seed).Fork(fsimage.MaterializeStreamLabel)
	if p.content, err = p.span("content.generate", func(s *span) error {
		var cw content.CountingWriter
		for _, f := range p.files {
			if err := reg.ForExtension(f.Ext).Generate(&cw, f.Size, base.SplitN(uint64(f.ID))); err != nil {
				return err
			}
		}
		s.did(cw.N, "B")
		if cw.N != p.bytes {
			return fmt.Errorf("the generators wrote %d bytes for files of %d", cw.N, p.bytes)
		}
		return nil
	}); err != nil {
		return err
	}
	p.set("content.generate_s", p.content.seconds())
	p.set("content.mb_per_s", mbPerS(p.bytes, p.content.seconds()))
	sha, _ := p.span("sha256.hash", func(s *span) error {
		h, block, sum := sha256.New(), make([]byte, 64<<10), make([]byte, 0, sha256.Size)
		for _, f := range p.files {
			h.Reset()
			for left := f.Size; left > 0; left -= int64(len(block)) {
				h.Write(block[:min(left, int64(len(block)))])
			}
			sinkU64 += uint64(h.Sum(sum)[0])
		}
		s.did(p.bytes, "B")
		return nil
	})
	p.set("sha256.hash_s", sha.seconds())
	p.set("sha256.mb_per_s", mbPerS(p.bytes, sha.seconds()))
	return nil
}

// digestFold streams the records into the canonical digest formula. With
// digests captured from a sink it must reproduce the reference digest, which
// ties the in-process passes to what the command computes.
func (p *tracedPass) digestFold(digests []string) (*span, error) {
	lookup := func(f fsimage.File) (string, error) { return digests[f.ID], nil }
	if digests == nil {
		zero := hex.EncodeToString(make([]byte, sha256.Size))
		lookup = func(fsimage.File) (string, error) { return zero, nil }
	}
	s, err := p.pass("fsimage.digest_fold", func(*span) (fsimage.RecordSink, func() error) {
		b := fsimage.NewDigestBuilder(p.cfg.NumDirs, p.cfg.NumFiles, p.bytes, lookup)
		return b, func() error {
			sum, err := b.Sum()
			if ref := p.refs[p.s.name]; err == nil && digests != nil && sum != ref {
				err = fmt.Errorf("digest %s folded from the sink's file digests differs from the reference %s", sum, ref)
			}
			return err
		}
	})
	if err == nil {
		p.set("fsimage.digest_fold_s", s.seconds())
	}
	return s, err
}

// probeGenerate is the retained generation a single-process command makes
// before it writes anything: the metadata pass plus the O(image)
// *fsimage.Image built from it, which is what the command then streams into
// its sink, and so what the stream passes of this workload replay.
func (p *tracedPass) probeGenerate() (err error) {
	var img *impressions.Image
	if p.generated, err = p.span("core.generate", func(s *span) error {
		res, err := impressions.GenerateContext(p.e.ctx, p.s.config(p.e.seed))
		if err != nil {
			return err
		}
		img = res.Image
		s.did(int64(img.FileCount()), "files")
		return nil
	}); err != nil {
		return err
	}
	nest(p.generated, p.metadata)
	p.src = img
	p.set("core.generate_s", p.generated.seconds())
	p.set("core.retain_s", p.minus("core.generate - core.metadata", p.generated.seconds(), p.metadata.seconds()))
	return nil
}

// dry is the generation as the dry run shows it from outside: process
// start-up, then the retained generation. What is left of the dry run is the
// dataset's desired curves, built once per process, and the printed report.
func (p *tracedPass) dry(startup *span) (*span, error) {
	dry, err := p.dryRun()
	if err != nil {
		return nil, err
	}
	nest(dry, startup, p.generated)
	return dry, nil
}

// meter is the wrapper at the io.Writer boundary under a sink: it counts the
// image bytes and charges the time spent below the sink, in the kernel's
// write path to /dev/null, to the span.
type meter struct {
	f *os.File
	s *span
	n int64
}

func (m *meter) Write(b []byte) (int, error) {
	begin := time.Now()
	n, err := m.f.Write(b)
	m.s.inner += time.Since(begin)
	m.n += int64(n)
	return n, err
}

func (m *meter) Seek(offset int64, whence int) (int64, error) { return m.f.Seek(offset, whence) }

// sinkPass streams the records into the workload's image sink onto
// /dev/null, as the command does, and returns the image's size. metered
// puts the timing writer under the sink.
func (p *tracedPass) sinkPass(name string, opts imgfmt.Options, metered bool) (*span, int64, error) {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	opts.Registry, opts.Seed, opts.Context = content.NewRegistry(content.KindDefault), p.e.seed, p.e.ctx
	var written int64
	s, err := p.pass(name, func(s *span) (fsimage.RecordSink, func() error) {
		s.did(p.bytes, "B")
		m := &meter{f: f, s: s}
		var w io.WriteSeeker = f
		if metered {
			w = m
		}
		finish := func(close func() error) func() error {
			return func() error { written = m.n; return close() }
		}
		if p.w.kind == kindTar {
			sink := imgfmt.NewTarSink(w, opts)
			return sink, finish(sink.Close)
		}
		sink, err := imgfmt.NewSquashfsSink(w, opts)
		if err != nil {
			return noopSink{}, func() error { return err }
		}
		return sink, finish(sink.Close)
	})
	return s, written, err
}

// traceArchive is the budget of a single-process archive run: generation,
// the sink, and the digest fold, with the sink opened up by substitution.
func (p *tracedPass) traceArchive(startup *span) error {
	sink := map[kind]string{kindTar: "imgfmt.tar", kindSquashfs: "imgfmt.squashfs"}[p.w.kind]
	dry, err := p.dry(startup)
	if err != nil {
		return err
	}
	frame, _, err := p.sinkPass(sink+"_frame", imgfmt.Options{MetadataOnly: true}, true)
	if err != nil {
		return err
	}
	body, _, err := p.sinkPass(sink, imgfmt.Options{}, true)
	if err != nil {
		return err
	}
	digests := make([]string, len(p.files))
	capture := imgfmt.Options{OnDigest: func(f fsimage.File, sum string) { digests[f.ID] = sum }}
	full, written, err := p.sinkPass(sink+"_digest", capture, true)
	if err != nil {
		return err
	}
	bare, _, err := p.sinkPass(sink+"_digest_unmetered", capture, false)
	if err != nil {
		return err
	}
	fold, err := p.digestFold(digests)
	if err != nil {
		return err
	}
	write := p.derived(full, "imgfmt.sink_write", full.inner.Seconds(), written, "B")

	nest(p.root, dry, full, fold)
	nest(full, body)
	nest(body, frame)
	nest(frame, p.treesink, write)
	nest(p.treesink, p.stream)

	p.set(sink+"_s", body.seconds())
	p.set(sink+"_digest_s", full.seconds())
	p.set(sink+"_bytes_per_content_byte", float64(written)/float64(p.bytes))
	p.set("imgfmt.sink_write_s", write.seconds())
	p.set("trace.overhead_ratio", full.seconds()/bare.seconds()-1)
	if p.w.kind == kindTar {
		framing := p.minus("imgfmt.tar_frame - fsimage.treesink", frame.seconds(), p.treesink.seconds())
		p.set("imgfmt.tar_frame_s", framing)
		p.set("imgfmt.tar_us_per_entry", framing*1e6/float64(p.records()-1))
		p.set("imgfmt.tar_pct_of_content", 100*p.content.seconds()/full.seconds())
	}
	for _, s := range []*span{body, full} {
		s.note = fmt.Sprintf("; runs at %.0f %% of content.mb_per_s", 100*p.content.seconds()/s.seconds())
	}
	return nil
}
