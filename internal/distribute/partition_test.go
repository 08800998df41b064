package distribute

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// fragmentBuffers builds a partitioned plan entirely into memory, one
// buffer per fragment.
func fragmentBuffers(tb testing.TB, req PlanRequest) (*Plan, [][]byte) {
	tb.Helper()
	bufs := make([]bytes.Buffer, req.MaxShards)
	plan, err := PartitionPlan(context.Background(), req, func(shard int) (io.WriteCloser, error) {
		return nopWriteCloser{&bufs[shard]}, nil
	})
	if err != nil {
		tb.Fatalf("PartitionPlan(K=%d): %v", req.MaxShards, err)
	}
	out := make([][]byte, len(plan.Shards))
	for s := range out {
		out[s] = bufs[s].Bytes()
	}
	return plan, out
}

// encodeView writes a view as a shard document by the plain writer: its
// tree's directory records and its files, through one encoder, sealed under
// its plan's chains with its own entry the chain its records make.
func encodeView(tb testing.TB, v *ShardView) []byte {
	tb.Helper()
	return sealRecords(tb, v, func(*records) {})
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// fragmentCases are the images the fragment tests run over, with 64-record
// chunks: a directory section that ends in a partial chunk (80
// directories), one that ends exactly on a chunk edge (128), an image so
// sparse (3 files under 64 directories) that with more shards than files
// some fragment carries no file chunk at all, and one whose fragment 0
// carries none at 4 shards (1 file under 64 directories: the partitioner
// hands shard 0 its heaviest item, a subtree of empty directories). Each
// case says what a plan must show for it to be the corner it was written
// for.
var fragmentCases = []struct {
	name   string
	adjust func(*core.Config)
	holds  func(*Plan) bool
}{
	{"partial directory chunk", func(*core.Config) {}, func(p *Plan) bool { return p.Dirs%p.ChunkSize != 0 }},
	{"directory chunk edge", func(c *core.Config) { c.NumDirs = 128 }, func(p *Plan) bool { return p.Dirs%p.ChunkSize == 0 }},
	{"fragments without files", func(c *core.Config) { c.NumDirs, c.NumFiles, c.FSSizeBytes = 64, 3, 3*2048 },
		func(p *Plan) bool {
			for _, sp := range p.Shards {
				if sp.Files == 0 {
					return true
				}
			}
			return len(p.Shards) <= 3
		}},
	{"fragment 0 without files", func(c *core.Config) { c.NumDirs, c.NumFiles, c.FSSizeBytes = 64, 1, 2048 },
		func(p *Plan) bool { return p.Shards[0].Files == 0 || len(p.Shards) < 4 }},
	{"no size", func(c *core.Config) { c.FSSizeBytes = 0 }, func(p *Plan) bool { return p.Spec.FSSizeBytes == 0 }},
}

// TestPartitionPlanFragmentsMatchPlainEncoding is the fragment format
// contract and the acceptance invariant of distributed planning, for every
// image of fragmentCases and K ∈ {1, 2, 4}: fragment s of a build, which the
// router writes with a directory section rendered once for every fragment,
// must be byte-identical to its own view encoded by the plain writer, one
// encoder over the tree and the shard's files. At K = 4, where every corner
// of fragmentCases is met, the fragments, executed and merged, must
// reproduce the single-process digest, summary, spec and sum error under the
// fingerprint the build sealed (TestTarWorkersStitchMatchesMonolithic merges
// testConfig() at every K). The shards run onto TarTarget(io.Discard): a
// directory target seals the same manifests (TestExecuteTargetsGolden), and
// the tree it writes is pinned there. The images with fewer files than
// directories, whose shards may carry no file, are written to a directory,
// whose tree must be the single process's: a shard without files still
// makes its directories.
func TestPartitionPlanFragmentsMatchPlainEncoding(t *testing.T) {
	for _, fc := range fragmentCases {
		name, cfg := fc.name, testConfig()
		fc.adjust(&cfg)
		ref, refDigest := singleProcessReference(t, cfg)
		sparse, refTree := ref.Image.FileCount() < ref.Image.DirCount(), ""
		if sparse {
			root := t.TempDir()
			if _, err := ref.Image.Materialize(root, fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: cfg.Seed}); err != nil {
				t.Fatalf("%s: Materialize: %v", name, err)
			}
			refTree = hashTree(t, root)
		}
		for _, k := range []int{1, 2, 4} {
			plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: k, ChunkSize: 64})
			if !fc.holds(plan) {
				t.Fatalf("%s K=%d: the plan (%d directories, shards %+v) is not that case", name, k, plan.Dirs, plan.Shards)
			}
			views := make([]*ShardView, len(frags))
			for s := range frags {
				view, err := DecodeShardView(bytes.NewReader(frags[s]))
				if err != nil {
					t.Fatalf("%s K=%d DecodeShardView(%d): %v", name, k, s, err)
				}
				if view.Plan.Fingerprint() != plan.Fingerprint() {
					t.Errorf("%s K=%d fragment %d binds plan %s, the build sealed %s", name, k, s, view.Plan.Fingerprint(), plan.Fingerprint())
				}
				if !bytes.Equal(frags[s], encodeView(t, view)) {
					t.Errorf("%s K=%d fragment %d bytes differ from its view's plain encoding", name, k, s)
				}
				views[s] = view
			}
			if k < 4 {
				continue
			}
			target, outRoot := TarTarget(io.Discard), ""
			if sparse {
				outRoot = t.TempDir()
				target = DirTarget(outRoot)
			}
			manifests := make([]*Manifest, len(views))
			for s, view := range views {
				var err error
				if manifests[s], err = executeView(view, target, WorkerOptions{}); err != nil {
					t.Fatalf("%s K=%d Execute(%d): %v", name, k, s, err)
				}
			}
			res, err := Merge(fragmentSource(context.Background(), frags), manifests)
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				t.Fatalf("%s K=%d fragment merge: %v", name, k, err)
			}
			if res.Plan.Fingerprint() != plan.Fingerprint() {
				t.Errorf("%s K=%d: the replay sealed plan %s, the build %s", name, k, res.Plan.Fingerprint(), plan.Fingerprint())
			}
			if res.Digest != refDigest {
				t.Errorf("%s K=%d fragment-merged digest %s != single-process %s", name, k, res.Digest, refDigest)
			}
			if res.Summary() != ref.Image.Summary() {
				t.Errorf("%s K=%d: merged %q, the single-process image is %q", name, k, res.Summary(), ref.Image.Summary())
			}
			if got, want := res.Report, ref.Report; got.SumError != want.SumError || !reflect.DeepEqual(got.Spec, want.Spec) {
				t.Errorf("%s K=%d merge reports sum error %v of spec %+v, the single process %v of %+v", name, k, got.SumError, got.Spec, want.SumError, want.Spec)
			}
			if sparse && hashTree(t, outRoot) != refTree {
				t.Errorf("%s K=%d: the workers' tree differs from the single process's", name, k)
			}
		}
	}
}

// hashTree is fsimage.HashTree of root.
func hashTree(t *testing.T, root string) string {
	t.Helper()
	sum, err := fsimage.HashTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestFragmentsCarryFragmentZerosTree: a fragment whose directory records
// differ from fragment 0's in any field fails the replay, even in the fields
// (a bias, a special mark) that no check of the fragment alone can see, and
// so does a fragment with a directory more or less.
func TestFragmentsCarryFragmentZerosTree(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	view := p.view(t, 1)
	for name, edit := range map[string]func(l *records){
		"a directory's bias":         func(l *records) { l.dirs[5].Bias = math.Nextafter(l.dirs[5].Bias, 1) },
		"a directory's special mark": func(l *records) { l.dirs[5].Special = !l.dirs[5].Special },
		"a directory more": func(l *records) {
			l.dirs = append(l.dirs, fsimage.DirRecord{ID: len(l.dirs), Parent: 0, Name: "extra"})
		},
		"a directory fewer": func(l *records) { l.dirs = l.dirs[:len(l.dirs)-1] },
	} {
		doc := sealRecords(t, view, edit)
		if name != "a directory fewer" && name != "a directory more" {
			if _, err := DecodeShardView(bytes.NewReader(doc)); err != nil {
				t.Fatalf("%s: the fragment alone is refused: %v", name, err)
			}
		}
		// Its neighbours sealed under its chains: the set agrees on its
		// seal, and only its directory chain stands in the way.
		chains := chainsIn(t, doc)
		set := [][]byte{sealedUnder(p.frags[0], chains), doc, sealedUnder(p.frags[2], chains)}
		_, err := Merge(fragmentSource(context.Background(), set), nil)
		if !errors.Is(err, fsimage.ErrManifestIntegrity) {
			t.Errorf("%s: Merge answered %v, want ErrManifestIntegrity", name, err)
		}
	}
}

// fragmentSource replays the fragment documents.
func fragmentSource(ctx context.Context, frags [][]byte) PlanSource {
	return FragmentSource(ctx, len(frags), func(shard int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(frags[shard])), nil
	})
}

// fileCounter is a PlanSink that counts the files it is handed.
type fileCounter struct{ files int }

func (c *fileCounter) AddDir(fsimage.DirRecord) error  { return nil }
func (c *fileCounter) AddFile(fsimage.File, int) error { c.files++; return nil }

// TestFragmentSourceHonorsContext: a replay whose context is cancelled as
// its sink opens stops with the context's error instead of streaming the
// plan on, alone and under Merge.
func TestFragmentSourceHonorsContext(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	ctx, cancel := context.WithCancel(context.Background())
	var sink fileCounter
	err := fragmentSource(ctx, p.frags)(func(*Plan) (PlanSink, error) {
		cancel()
		return &sink, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("FragmentSource: got %v after %d of %d files, want context.Canceled", err, sink.files, p.Plan.Files)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	src := fragmentSource(ctx, p.frags)
	_, err = Merge(func(open func(*Plan) (PlanSink, error)) error {
		return src(func(hdr *Plan) (PlanSink, error) {
			cancel()
			return open(hdr)
		})
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Merge: got %v, want context.Canceled", err)
	}
}

// stopWriter passes n bytes; then it fails every write with err or, with
// err nil, calls cancel once and passes everything.
type stopWriter struct {
	n      int
	err    error
	cancel func()
}

func (w *stopWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	if w.err == nil {
		w.cancel()
		w.n = math.MaxInt
		return len(p), nil
	}
	written := w.n
	w.n = 0
	return written, w.err
}

func (*stopWriter) Close() error { return nil }

// TestPlanBuildFailuresStopTheSealer: a plan build whose writer fails, or
// whose context is cancelled, part way returns that error at every
// Parallelism the sealer runs at, and leaves no goroutine behind. The
// writer of one fragment fails at its first flush, half way, and at the
// trailer; the cancel comes at the fragment's first flush and a quarter of
// the way in, with records left to route. Four more rows build the plan in
// chunks larger than any shard, so each fragment's files are one chunk,
// sealed a piece at a time as they are routed and closed by the trailing
// flush: fragment 1's writer fails half way through it and in the middle
// of its second piece (pieces are 1024 records), and the cancel comes at
// the same two places.
func TestPlanBuildFailuresStopTheSealer(t *testing.T) {
	cfg := testConfig()
	cfg.NumFiles, cfg.FSSizeBytes = 20000, 20000*2048
	const shards, trailingChunk = 3, 8192
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: 64})
	fragLen := len(frags[1])
	plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: trailingChunk})
	for _, sh := range plan.Shards {
		if sh.Files >= trailingChunk {
			t.Fatalf("shard %d has %d files, not fewer than a chunk of %d", sh.Index, sh.Files, trailingChunk)
		}
	}
	// Half way through fragment 1's one chunk of files.
	filesAt := bytes.Index(frags[1], []byte(`"files":[`))
	inTrailing := (filesAt + bytes.LastIndex(frags[1], []byte(`"trailer"`))) / 2
	// Half way through the second piece of that chunk: at its 1536th record.
	if plan.Shards[1].Files < 2048 {
		t.Fatalf("shard 1 has %d files, not two pieces", plan.Shards[1].Files)
	}
	midPiece := filesAt
	for range 1536 {
		midPiece += 1 + bytes.Index(frags[1][midPiece+1:], []byte(`{"ID":`))
	}
	boom := errors.New("boom")
	for _, par := range []int{1, 2, 4} {
		cfg.Parallelism = par
		fragment1 := func(ctx context.Context, chunkSize int, w *stopWriter) error {
			req := PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: chunkSize}
			_, err := PartitionPlan(ctx, req, func(shard int) (io.WriteCloser, error) {
				if shard == 1 {
					return w, nil
				}
				return nopWriteCloser{io.Discard}, nil
			})
			return err
		}
		baseline := runtime.NumGoroutine()
		for _, at := range []int{10, fragLen / 2, fragLen - 10} {
			if err := fragment1(context.Background(), 64, &stopWriter{n: at, err: boom}); !errors.Is(err, boom) {
				t.Errorf("-j %d PartitionPlan, fragment 1's writer failing after %d of %d bytes: got %v, want %v", par, at, fragLen, err, boom)
			}
		}
		for _, at := range []int{inTrailing, midPiece} {
			if err := fragment1(context.Background(), trailingChunk, &stopWriter{n: at, err: boom}); !errors.Is(err, boom) {
				t.Errorf("-j %d PartitionPlan, fragment 1's writer failing at byte %d of its one chunk of files: got %v, want %v", par, at, err, boom)
			}
		}
		cancelled := func(chunkSize, at int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return fragment1(ctx, chunkSize, &stopWriter{n: at, cancel: cancel})
		}
		for _, at := range []int{10, fragLen / 4} {
			if err := cancelled(64, at); !errors.Is(err, context.Canceled) {
				t.Errorf("-j %d PartitionPlan cancelled after %d of fragment 1's %d bytes: got %v, want %v", par, at, fragLen, err, context.Canceled)
			}
		}
		for _, at := range []int{inTrailing, midPiece} {
			if err := cancelled(trailingChunk, at); !errors.Is(err, context.Canceled) {
				t.Errorf("-j %d PartitionPlan cancelled at byte %d of fragment 1's one chunk of files: got %v, want %v", par, at, err, context.Canceled)
			}
		}
		waitGoroutines(t, baseline)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline within a few seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines left, %d before the build", n, baseline)
	}
}

// TestFragmentSourceRejectsTamperedFragment: a fragment whose records or
// seal differ from the ones its plan was built with must surface as an
// integrity violation, never a silently different image — even when every
// count and sum of the shard table still holds.
func TestFragmentSourceRejectsTamperedFragment(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	view := p.view(t, 1)
	integrity := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, fsimage.ErrManifestIntegrity) {
			t.Errorf("%s: got %v, want ErrManifestIntegrity", what, err)
		}
	}
	replay := func(frag1 []byte) PlanSource {
		return fragmentSource(context.Background(), [][]byte{p.frags[0], frag1, p.frags[2]})
	}

	// One byte moved between two of fragment 1's files: the shard's files
	// and bytes hold, every chunk hash and its own chain are right.
	moved := sealRecords(t, view, func(l *records) {
		i := slices.IndexFunc(l.files, func(f fsimage.File) bool { return f.Size > 0 })
		l.files[i].Size--
		l.files[i+1].Size++
	})
	_, err := DecodeShardView(bytes.NewReader(sealedUnder(moved, view.Plan.Chains)))
	integrity("moved byte under the plan's chains: DecodeShardView", err)
	_, err = Merge(replay(moved), nil)
	integrity("moved byte under its own chain: Merge", err)
	_, err = NewManifestCheck(replay(moved))
	integrity("moved byte under its own chain: NewManifestCheck", err)
	alone, err := DecodeShardView(bytes.NewReader(moved))
	if err != nil {
		t.Fatalf("moved byte under its own chain: DecodeShardView: %v", err)
	}
	if alone.Plan.Fingerprint() == p.Plan.Fingerprint() {
		t.Error("moved byte under its own chain: the fragment alone binds the plan's fingerprint")
	}

	// Another fragment's chain flipped in fragment 1's trailer.
	chains := slices.Clone(view.Plan.Chains)
	chains[2] = strings.Trim(otherHex(`"`+chains[2]+`"`), `"`)
	_, err = Merge(replay(sealedUnder(p.frags[1], chains)), nil)
	integrity("fragment 2's chain flipped in fragment 1: Merge", err)

	// A flipped record byte must be caught too (chunk hash).
	k := bytes.Index(p.frags[0], []byte(`"name":"dir`))
	if k < 0 {
		t.Fatal("no directory record in fragment 0")
	}
	flipped := append([]byte(nil), p.frags[0]...)
	flipped[k+len(`"name":"`)] ^= 1
	_, err = Merge(fragmentSource(context.Background(), [][]byte{flipped, p.frags[1], p.frags[2]}), nil)
	integrity("bit-flipped record in fragment 0: Merge", err)
}

// TestFragmentIndexRoundTrip covers the index document: encode/decode
// round-trip, version gate, and the shards/fragments consistency check.
func TestFragmentIndexRoundTrip(t *testing.T) {
	ix := &FragmentIndex{
		FormatVersion: FragmentIndexVersion,
		Fingerprint:   "abc",
		Shards:        2,
		Files:         10,
		Dirs:          3,
		Bytes:         1024,
		Fragments:     []string{FragmentName("plan.json", 0), FragmentName("plan.json", 1)},
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFragmentIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != ix.Fingerprint || got.Shards != ix.Shards || len(got.Fragments) != 2 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	bad := *ix
	bad.FormatVersion = FragmentIndexVersion + 1
	var b2 bytes.Buffer
	bad.Encode(&b2)
	if _, err := DecodeFragmentIndex(bytes.NewReader(b2.Bytes())); !errors.Is(err, fsimage.ErrPlanVersion) {
		t.Errorf("future index version: got %v, want ErrPlanVersion", err)
	}
	short := *ix
	short.Fragments = short.Fragments[:1]
	var b3 bytes.Buffer
	short.Encode(&b3)
	if _, err := DecodeFragmentIndex(bytes.NewReader(b3.Bytes())); err == nil {
		t.Error("index with missing fragment names accepted")
	}
	// Names that would take a reader out of the index's directory.
	for _, name := range []string{"", ".", "..", "../plan.json.frag1", "../../etc/passwd", "/etc/passwd", "sub/plan.json.frag1", "plan.json.frag1/"} {
		hostile := *ix
		hostile.Fragments = []string{ix.Fragments[0], name}
		var b bytes.Buffer
		hostile.Encode(&b)
		if _, err := DecodeFragmentIndex(bytes.NewReader(b.Bytes())); !errors.Is(err, fsimage.ErrManifestIntegrity) {
			t.Errorf("index naming fragment %q: got %v, want ErrManifestIntegrity", name, err)
		}
	}
}

// TestPartitionedPlanBuildMemoryBound is the O(dirs) contract of the plan
// build: built as 8 spilled fragments, a plan of 4N files must peak at the
// live heap of one of N files under the same directories, give or take a
// fixed slack. No size is requested, so the resolver draws into the sizes
// column and never holds the draw (the spill contract's O(dirs) regime).
// The builds run at Parallelism 4, whose sharded phases hold a shard's
// blocks per worker: O(workers × shard), not O(files). Anything kept per
// file — a column on the heap, a list of records, a work list per worker —
// grows with the 3N files between the two builds and blows the slack. The
// chunks are 1024 records: the fragments' chunks in encoding and in flight
// are a fixed number, but how many of them a build fills depends on the
// scheduler, and at the default 8192 records that alone moved a loaded
// machine's peak by 5 MB. The sampler reads the live heap between ticks, and
// the N-file build is short enough to fall between a few of them (it once
// read 3.5 MB against the usual 8.3–10), so its peak is the largest of three
// builds: a missed peak can only make the bound stricter than it is.
func TestPartitionedPlanBuildMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	const n, slack = 250_000, 4 << 20
	var peaks [2]uint64
	for i, files := range []int{n, n, n, 4 * n} {
		peak := spilledPartitionPeak(t, core.Config{NumFiles: files, NumDirs: 20_000, Seed: 20090225, Parallelism: 4})
		peaks[i/3] = max(peaks[i/3], peak)
	}
	t.Logf("partitioned plan build: peak live heap %.1f MB at %d files, %.1f MB at %d (slack %d MB)",
		float64(peaks[0])/(1<<20), n, float64(peaks[1])/(1<<20), 4*n, slack>>20)
	if peaks[1] > peaks[0]+slack {
		t.Errorf("the plan build peaked at %.1f MB of live heap at %d files and %.1f MB at %d: more than %d MB apart — something is retaining O(files) state",
			float64(peaks[0])/(1<<20), n, float64(peaks[1])/(1<<20), 4*n, slack>>20)
	}
}

// TestWriteFragmentsAllocatesOnce: writing a 100k-file plan's fragments at
// Parallelism 2 allocates each record buffer once, at the size its
// encoder's share of the records needs, and not again after it is handed
// to the sealer and back: the write allocates at most 16 MB at K = 8 and at
// K = 32, where buffers regrown from nil at every cut came to 25 and 32 MB.
func TestWriteFragmentsAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const limit = 16 << 20
	for _, k := range []int{8, 32} {
		rp, err := PlanRequest{Config: core.Config{NumFiles: 100_000, Seed: 20090225, Parallelism: 2}, MaxShards: k}.Resolve(context.Background())
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		alloc := writeFragmentsAlloc(t, rp)
		rp.Close()
		t.Logf("K = %d: WriteFragments allocated %.1f MB", k, float64(alloc)/(1<<20))
		if alloc > limit {
			t.Errorf("K = %d: WriteFragments allocated %.1f MB, more than %d MB", k, float64(alloc)/(1<<20), limit>>20)
		}
	}
}

// writeFragmentsAlloc writes the plan's fragments into discarding writers
// and returns the bytes the write allocated.
func writeFragmentsAlloc(t *testing.T, rp *ResolvedPlan) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rp.WriteFragments(context.Background(), func(int) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// spilledPartitionPeak builds cfg's plan as 8 spilled fragments of
// 1024-record chunks and returns the build's peak live heap.
func spilledPartitionPeak(t *testing.T, cfg core.Config) uint64 {
	t.Helper()
	var plan *Plan
	peak := liveHeapPeak(t, func() {
		var err error
		cfg.SpillDir = t.TempDir()
		plan, err = PartitionPlan(context.Background(), PlanRequest{Config: cfg, MaxShards: 8, ChunkSize: 1024}, func(int) (io.WriteCloser, error) {
			return nopWriteCloser{countingDiscard{}}, nil
		})
		if err != nil {
			t.Errorf("PartitionPlan: %v", err)
		}
	})
	if plan == nil {
		t.Fatal("no plan")
	}
	if plan.Files != cfg.NumFiles || len(plan.Shards) != 8 {
		t.Fatalf("plan has %d files in %d fragments, want %d in 8", plan.Files, len(plan.Shards), cfg.NumFiles)
	}
	return peak
}

// gatedContext is a context whose Done blocks until gate is closed: it holds
// a caller at the point where it asks for the channel.
type gatedContext struct {
	context.Context
	gate <-chan struct{}
}

func (c gatedContext) Done() <-chan struct{} {
	<-c.gate
	return c.Context.Done()
}

// closeSignal closes closed when the reader is closed.
type closeSignal struct {
	io.Reader
	closed chan struct{}
}

func (c closeSignal) Close() error {
	close(c.closed)
	return nil
}

// TestFragmentSourceSmallFragmentZero: a fragment 0 of at most 256 file
// records fits the replay's file channel whole (and its 24 directories the
// directory channel), so its decoder can hand over its header, stream every
// record and finish before the replay looks at any of them; the replay must
// still take them all. The gated context holds the replay, as it enters its
// first wait, until fragment 0's decoder has read its document to the end
// and closed its reader, so every round is that case — a replay that then
// picks at random loses half of them.
func TestFragmentSourceSmallFragmentZero(t *testing.T) {
	cfg := core.Config{NumFiles: 120, NumDirs: 24, FSSizeBytes: 120 * 1024, Seed: 77, Parallelism: 1}
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 2, ChunkSize: 64})
	manifests := make([]*Manifest, len(frags))
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		if s == 0 && len(view.Files) > 256 {
			t.Fatalf("fragment 0 holds %d files; its decoder cannot finish unattended with more than 256", len(view.Files))
		}
		if manifests[s], err = executeView(view, DirTarget(t.TempDir()), WorkerOptions{}); err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
	}
	for round := 0; round < 64; round++ {
		decoded := make(chan struct{})
		ctx := gatedContext{Context: context.Background(), gate: decoded}
		res, err := Merge(FragmentSource(ctx, len(frags), func(shard int) (io.ReadCloser, error) {
			if shard == 0 {
				return closeSignal{Reader: bytes.NewReader(frags[0]), closed: decoded}, nil
			}
			return io.NopCloser(bytes.NewReader(frags[shard])), nil
		}), manifests)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestShardTotalsCountedFromTheTree: the per-shard file and byte
// expectations Resolve reads off the tree's directories equal a scan of the
// placement columns folded through a ShardAccumulator, at every shard
// count, on the heap and spilled, with and without special directories.
func TestShardTotalsCountedFromTheTree(t *testing.T) {
	for _, special := range []bool{false, true} {
		for _, spill := range []bool{false, true} {
			for _, k := range []int{1, 2, 8, 32} {
				cfg := core.Config{NumFiles: 6000, NumDirs: 600, Seed: 20090225, Parallelism: 2, UseSpecialDirectories: special}
				if spill {
					cfg.SpillDir = t.TempDir()
				}
				rp, err := PlanRequest{Config: cfg, MaxShards: k}.Resolve(context.Background())
				if err != nil {
					t.Fatalf("special %v spill %v K=%d: Resolve: %v", special, spill, k, err)
				}
				acc := namespace.NewShardAccumulator(rp.part)
				err = rp.Meta.EachPlacement(func(_, dirID int, size int64) error { acc.Add(dirID, size); return nil })
				rp.Close()
				if err != nil {
					t.Fatalf("special %v spill %v K=%d: EachPlacement: %v", special, spill, k, err)
				}
				files := 0
				for s, sh := range rp.Plan.Shards {
					if sh.Files != acc.Files(s) || sh.Bytes != acc.Bytes(s) {
						t.Errorf("special %v spill %v K=%d shard %d: %d files, %d bytes from the tree; the scan counts %d, %d",
							special, spill, k, s, sh.Files, sh.Bytes, acc.Files(s), acc.Bytes(s))
					}
					files += sh.Files
				}
				if files != rp.Plan.Files {
					t.Errorf("special %v spill %v K=%d: the shards hold %d files of %d", special, spill, k, files, rp.Plan.Files)
				}
			}
		}
	}
}
