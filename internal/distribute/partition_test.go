package distribute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/parallel"
	"impressions/internal/stats"
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
// tree's directory records and its files, through one encoder.
func encodeView(tb testing.TB, v *ShardView) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sealer := fsimage.NewChunkSealer(1)
	defer sealer.Close()
	d, err := newDocWriter(&buf, shardHeader(v.Plan, v.Shard), sealer, v.Plan.ChunkSize)
	if err == nil {
		err = (&fsimage.Image{Tree: v.Tree, Files: v.Files}).StreamRecords(d)
	}
	if err == nil {
		_, _, err = d.Close()
	}
	if err != nil {
		tb.Fatalf("encoding shard %d: %v", v.Shard, err)
	}
	return buf.Bytes()
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// fragmentCases are the images the fragment byte-identity tests run over,
// with 64-record chunks: a directory section that ends in a partial chunk
// (80 directories), one that ends exactly on a chunk edge (128), and an
// image so sparse (3 files under 64 directories) that with more shards than
// files some fragment carries no file chunk at all. Each case says what a
// plan must show for it to be the corner it was written for.
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
}

// TestPartitionPlanFragmentsMatchPlainEncoding is the fragment format
// contract: fragment s of a build, which the router writes with a
// directory section rendered once for every fragment, must be byte-identical
// to its own view encoded by the plain writer, one encoder over the tree and
// the shard's files, for K ∈ {1, 2, 4}.
func TestPartitionPlanFragmentsMatchPlainEncoding(t *testing.T) {
	for _, fc := range fragmentCases {
		name, cfg := fc.name, testConfig()
		fc.adjust(&cfg)
		for _, k := range []int{1, 2, 4} {
			plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: k, ChunkSize: 64})
			if !fc.holds(plan) {
				t.Fatalf("%s K=%d: the plan (%d directories, shards %+v) is not that case", name, k, plan.Dirs, plan.Shards)
			}
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
			}
		}
	}
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
		_, err := Merge(fragmentSource(context.Background(), [][]byte{p.frags[0], doc, p.frags[2]}), nil)
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

// runFragmentPipeline executes every fragment through the real worker path
// and merges the fragment streams, returning the merge result and the
// materialized out root.
func runFragmentPipeline(t *testing.T, frags [][]byte) (*MergeResult, string, error) {
	t.Helper()
	outRoot := t.TempDir()
	manifests := make([]*Manifest, len(frags))
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		m, err := executeView(view, DirTarget(outRoot), WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res, err := Merge(fragmentSource(context.Background(), frags), manifests)
	if err == nil {
		err = res.Err()
	}
	return res, outRoot, err
}

// TestPartitionedPipelineMatchesSingleProcess is the acceptance invariant
// for distributed planning: fragments → workers → fragment merge must
// reproduce the single-process digest and a byte-identical tree (the
// diff -r equivalence), for K ∈ {1, 2, 4}.
func TestPartitionedPipelineMatchesSingleProcess(t *testing.T) {
	cfg := testConfig()
	_, refDigest, refTreeHash := singleProcessReference(t, cfg)
	for _, k := range []int{1, 2, 4} {
		_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: k, ChunkSize: 64})
		res, outRoot, err := runFragmentPipeline(t, frags)
		if err != nil {
			t.Fatalf("K=%d fragment merge: %v", k, err)
		}
		if res.Digest != refDigest {
			t.Errorf("K=%d fragment-merged digest %s != single-process %s", k, res.Digest, refDigest)
		}
		if res.Report.ActualFiles != cfg.NumFiles {
			t.Errorf("K=%d merge reports %d files, want %d", k, res.Report.ActualFiles, cfg.NumFiles)
		}
		treeHash, err := fsimage.HashTree(outRoot)
		if err != nil {
			t.Fatal(err)
		}
		if treeHash != refTreeHash {
			t.Errorf("K=%d materialized tree hash %s != single-process %s", k, treeHash, refTreeHash)
		}
	}
}

// rawDrawSum replicates the constraint resolver's attempt-0 pool sum for
// cfg, so tests can place FSSizeBytes where the resolver keeps its raw draw.
func rawDrawSum(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(n.Seed).Fork("sizes")
	base := stats.NewRNG(int64(rng.Uint64())).SplitStream("pool")
	sum := 0.0
	for s := 0; s < parallel.Shards(n.NumFiles); s++ {
		srng := base.SplitN(uint64(s))
		lo, hi := parallel.Bounds(n.NumFiles, s)
		for i := lo; i < hi; i++ {
			sum += n.FileSizeDist.Sample(srng)
		}
	}
	return sum
}

// TestSpilledPlanMatchesInMemory is the byte-identity matrix of the plan
// builder: the PartitionPlan fragments, built at Parallelism 1, 2 and 4 — where the chunk sealer runs inline, on one
// goroutine and on three — over columns on the heap and spilled to files,
// must all equal the heap build at Parallelism 1. The images: where the
// resolver keeps its raw draw (target placed on the raw draw sum) and on
// the documented O(N) fallback (target far from it); a 1-file image; file
// counts that end the columns just short of, on, and just past an edge of
// the 4096-value blocks they are loaded and stored in, so that depth levels
// place files on both sides of one; and the two placement cases, special
// directories (files committed before the parent pass) and a deep tree
// (many depth levels, most of them sparse).
func TestSpilledPlanMatchesInMemory(t *testing.T) {
	fast := testConfig()
	fast.FSSizeBytes = int64(rawDrawSum(t, fast))
	cases := map[string]core.Config{"fastpath": fast, "fallback": testConfig()}
	for _, n := range []int{1, 4095, 4096, 4097, 2*4096 + 1} {
		cfg := testConfig()
		cfg.NumFiles, cfg.FSSizeBytes = n, int64(n)*2048
		cases[fmt.Sprintf("%d files", n)] = cfg
	}
	special := testConfig()
	special.NumFiles, special.NumDirs, special.FSSizeBytes, special.UseSpecialDirectories = 9000, 400, 9000*2048, true
	cases["special directories"] = special
	deep := testConfig()
	deep.NumFiles, deep.NumDirs, deep.FSSizeBytes, deep.TreeShape = 9000, 300, 9000*2048, namespace.ShapeDeep
	cases["deep tree"] = deep

	build := func(cfg core.Config) [][]byte {
		_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: 64})
		return frags
	}
	for name, cfg := range cases {
		cfg.Parallelism = 1
		refFrags := build(cfg)
		for _, par := range []int{1, 2, 4} {
			for _, spill := range []bool{false, true} {
				if par == 1 && !spill {
					continue
				}
				c := cfg
				c.Parallelism = par
				if spill {
					c.SpillDir = t.TempDir()
				}
				frags := build(c)
				for s := range refFrags {
					if !bytes.Equal(frags[s], refFrags[s]) {
						t.Errorf("%s -j %d spill=%v: fragment %d differs from the heap build at -j 1", name, par, spill, s)
					}
				}
			}
		}
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
// the way in, with records left to route.
func TestPlanBuildFailuresStopTheSealer(t *testing.T) {
	cfg := testConfig()
	cfg.NumFiles, cfg.FSSizeBytes = 20000, 20000*2048
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 3, ChunkSize: 64})
	fragLen := len(frags[1])
	boom := errors.New("boom")
	for _, par := range []int{1, 2, 4} {
		cfg.Parallelism = par
		req := PlanRequest{Config: cfg, MaxShards: 3, ChunkSize: 64}
		fragment1 := func(ctx context.Context, w *stopWriter) error {
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
			if err := fragment1(context.Background(), &stopWriter{n: at, err: boom}); !errors.Is(err, boom) {
				t.Errorf("-j %d PartitionPlan, fragment 1's writer failing after %d of %d bytes: got %v, want %v", par, at, fragLen, err, boom)
			}
		}
		for _, at := range []int{10, fragLen / 4} {
			ctx, cancel := context.WithCancel(context.Background())
			err := fragment1(ctx, &stopWriter{n: at, cancel: cancel})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("-j %d PartitionPlan cancelled after %d of fragment 1's %d bytes: got %v, want %v", par, at, fragLen, err, context.Canceled)
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

// TestFragmentSourceRejectsTamperedFragment: editing a fragment's header —
// here the parent chain hash it binds — must surface as an integrity
// violation, never a silently different image.
func TestFragmentSourceRejectsTamperedFragment(t *testing.T) {
	cfg := testConfig()
	_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 2, ChunkSize: 64})

	// Build honest manifests first, then tamper fragment 1's header.
	manifests := make([]*Manifest, len(frags))
	outRoot := t.TempDir()
	for s, doc := range frags {
		view, err := DecodeShardView(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if manifests[s], err = executeView(view, DirTarget(outRoot), WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	marker := []byte(`"image_sha256":"`)
	i := bytes.Index(frags[1], marker)
	if i < 0 {
		t.Fatal("no image_sha256 field in fragment header")
	}
	tampered := append([]byte(nil), frags[1]...)
	j := i + len(marker)
	if tampered[j] == '0' {
		tampered[j] = '1'
	} else {
		tampered[j] = '0'
	}
	_, err := Merge(fragmentSource(context.Background(), [][]byte{frags[0], tampered}), manifests)
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("tampered fragment header: got %v, want ErrManifestIntegrity", err)
	}

	// A flipped record byte must be caught too (chunk hash).
	k := bytes.Index(frags[0], []byte(`"name":"dir`))
	if k < 0 {
		t.Fatal("no directory record in fragment 0")
	}
	flipped := append([]byte(nil), frags[0]...)
	flipped[k+len(`"name":"`)] ^= 1
	if _, err := Merge(fragmentSource(context.Background(), [][]byte{flipped, frags[1]}), manifests); err == nil {
		t.Error("bit-flipped fragment record accepted")
	}
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
// build made concrete: a 10,000,000-file plan built as 8 spilled fragments
// must hold its peak live heap under 128 MB, a cap the 10M retained file
// records alone would blow through by an order of magnitude.
// The target sum sits on the measured raw-draw sum for this seed, so the
// resolver keeps the draw it made into the sizes column and never holds it
// (the spill contract's O(dirs) regime); a regression onto any O(files)
// column blows the cap.
// Extrapolation: live heap is dirs-dominated (~200k dirs here), so 10⁸
// files at the same dir count fits the same cap, and 10⁹ needs only the
// dir tree to grow.
func TestPartitionedPlanBuildMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("10M-file build skipped in -short")
	}
	// FSSizeBytes pins the target onto the raw-draw sum measured for this
	// exact (NumFiles, Seed) pair; see rawDrawSum.
	cfg := core.Config{NumFiles: 10_000_000, NumDirs: 200_000, FSSizeBytes: 3_605_134_771_990, Seed: 20090225, Parallelism: 1}
	const memCap = 128 << 20
	peak := spilledPartitionPeak(t, cfg)
	t.Logf("10M-file partitioned plan build: peak live heap %.1f MB (cap %.0f MB)", float64(peak)/(1<<20), float64(memCap)/(1<<20))
	if peak > memCap {
		t.Errorf("partitioned plan build peaked at %.1f MB live heap, cap is %.0f MB — something is retaining O(files) state",
			float64(peak)/(1<<20), float64(memCap)/(1<<20))
	}

	// The sharded phases of a spilled pass run on Parallelism workers, each
	// holding the blocks of the shard it works on: O(workers × shard), not
	// O(files). With few directories under many files, a column or a work
	// list kept per worker would show.
	small := core.Config{NumFiles: 2_000_000, NumDirs: 20_000, Seed: 20090225}
	small.FSSizeBytes = int64(rawDrawSum(t, small))
	var peaks [2]float64
	for i, par := range []int{1, 4} {
		small.Parallelism = par
		peaks[i] = float64(spilledPartitionPeak(t, small)) / (1 << 20)
	}
	t.Logf("2M-file partitioned plan build: peak live heap %.1f MB at -j 1, %.1f MB at -j 4", peaks[0], peaks[1])
	if d := peaks[1] - peaks[0]; d > 8 || d < -8 {
		t.Errorf("peak live heap %.1f MB at -j 1 and %.1f MB at -j 4: more than 8 MB apart", peaks[0], peaks[1])
	}
}

// spilledPartitionPeak builds cfg's plan as 8 spilled fragments and returns
// the build's peak live heap.
func spilledPartitionPeak(t *testing.T, cfg core.Config) uint64 {
	t.Helper()
	var plan *Plan
	peak := liveHeapPeak(t, func() {
		var err error
		cfg.SpillDir = t.TempDir()
		plan, err = PartitionPlan(context.Background(), PlanRequest{Config: cfg, MaxShards: 8}, func(int) (io.WriteCloser, error) {
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
// records fits the replay's file channel whole, so its decoder can hand over
// the tree, stream every file and report done before the replay looks at
// either; the replay must still take the tree. The gated context holds the
// replay, as it enters its first wait, until fragment 0's decoder has
// finished (it closes its reader after reporting done), so every round is
// that case — a replay that then picks at random loses half of them.
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
