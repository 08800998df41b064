package distribute

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// testConfig is a small but structurally interesting image: several hundred
// files over a generative tree with real content.
func testConfig() core.Config {
	return core.Config{NumFiles: 400, NumDirs: 80, FSSizeBytes: 400 * 2048, Seed: 1234, Parallelism: 1}
}

// singleProcessReference generates and materializes the reference image in
// one process, returning the image with its report, its canonical digest,
// and the tree hash of the materialized root.
func singleProcessReference(t *testing.T, cfg core.Config) (*core.Result, string, string) {
	t.Helper()
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	opts := fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: cfg.Seed}
	digest, err := res.Image.Digest(opts)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	root := t.TempDir()
	if _, err := res.Image.Materialize(root, opts); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	treeHash, err := fsimage.HashTree(root)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	return res, digest, treeHash
}

// testPlan is a plan as the package's tests hold one: its fragments and its
// sealed header, from which every test takes shard views, replays and
// merges, exactly as a worker or a merge on another machine would.
type testPlan struct {
	Plan  *Plan
	frags [][]byte
}

// planRoundTrip builds cfg's plan into memory. The small chunk size forces
// the metadata stream through many chunks even on test-sized images.
func planRoundTrip(tb testing.TB, cfg core.Config, shards int) *testPlan {
	tb.Helper()
	plan, frags := fragmentBuffers(tb, PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: 64})
	return &testPlan{Plan: plan, frags: frags}
}

// source replays the plan's fragments.
func (p *testPlan) source() PlanSource { return fragmentSource(context.Background(), p.frags) }

// under replays the plan's records under another header.
func (p *testPlan) under(hdr *Plan) PlanSource {
	return func(open func(*Plan) (PlanSink, error)) error {
		sink, err := open(hdr)
		if err != nil {
			return err
		}
		return p.source()(func(*Plan) (PlanSink, error) { return sink, nil })
	}
}

// retagged is a PlanSink that hands every file on as shard's.
type retagged struct {
	PlanSink
	shard int
}

func (r retagged) AddFile(f fsimage.File, _ int) error { return r.PlanSink.AddFile(f, r.shard) }

// decode decodes one shard's fragment, refusing a shard the plan does not
// have as a worker does.
func (p *testPlan) decode(shard int) (*ShardView, error) {
	if err := p.Plan.checkShard(shard); err != nil {
		return nil, err
	}
	return DecodeShardView(bytes.NewReader(p.frags[shard]))
}

// view decodes one shard's fragment.
func (p *testPlan) view(tb testing.TB, shard int) *ShardView {
	tb.Helper()
	v, err := p.decode(shard)
	if err != nil {
		tb.Fatalf("DecodeShardView(%d): %v", shard, err)
	}
	return v
}

// merge merges a manifest set against the plan and requires it complete.
func (p *testPlan) merge(tb testing.TB, manifests []*Manifest) *MergeResult {
	tb.Helper()
	res, err := Merge(p.source(), manifests)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		tb.Fatalf("Merge: %v", err)
	}
	return res
}

// checkGoroutines fails the test unless the goroutine count returns to
// baseline.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed call, %d before it", runtime.NumGoroutine(), baseline)
		}
	}
}

// executeView runs one shard view onto target and returns its manifest.
func executeView(v *ShardView, target Target, opts WorkerOptions) (*Manifest, error) {
	res, err := Execute(context.Background(), v, target, opts)
	if err != nil {
		return nil, err
	}
	return res.Manifest, nil
}

// executeShard decodes one shard's fragment and materializes it under
// outRoot.
func executeShard(p *testPlan, shard int, outRoot string, opts WorkerOptions) (*Manifest, error) {
	v, err := p.decode(shard)
	if err != nil {
		return nil, err
	}
	return executeView(v, DirTarget(outRoot), opts)
}

// runManifests executes every shard (each into the shared outRoot) and
// round-trips each manifest through its JSON encoding.
func runManifests(t *testing.T, p *testPlan, outRoot string) []*Manifest {
	t.Helper()
	manifests := make([]*Manifest, len(p.Plan.Shards))
	for s := range p.Plan.Shards {
		m, err := executeShard(p, s, outRoot, WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("manifest Encode: %v", err)
		}
		decoded, err := DecodeManifest(&buf)
		if err != nil {
			t.Fatalf("DecodeManifest: %v", err)
		}
		manifests[s] = decoded
	}
	return manifests
}

// TestPlanWorkerMergeMatchesSingleProcess is the headline invariant: for a
// fixed seed, plan → K workers → merge produces an image byte-identical
// (canonical digest AND on-disk tree hash) to a single-process run, for
// K ∈ {1, 2, 4}.
func TestPlanWorkerMergeMatchesSingleProcess(t *testing.T) {
	cfg := testConfig()
	ref, refDigest, refTreeHash := singleProcessReference(t, cfg)
	refImg := ref.Image

	for _, k := range []int{1, 2, 4} {
		p := planRoundTrip(t, cfg, k)
		if got := len(p.Plan.Shards); got > k {
			t.Fatalf("K=%d: plan has %d shards", k, got)
		}
		if p.Plan.Files != refImg.FileCount() || p.Plan.Bytes != refImg.TotalBytes() {
			t.Fatalf("K=%d: plan metadata differs from single-process image", k)
		}
		outRoot := t.TempDir()
		res := p.merge(t, runManifests(t, p, outRoot))
		if res.Digest != refDigest {
			t.Fatalf("K=%d: merged digest %s != single-process digest %s", k, res.Digest, refDigest)
		}
		treeHash, err := fsimage.HashTree(outRoot)
		if err != nil {
			t.Fatalf("HashTree: %v", err)
		}
		if treeHash != refTreeHash {
			t.Fatalf("K=%d: materialized tree differs from single-process tree", k)
		}
		if res.Report.ActualBytes != refImg.TotalBytes() {
			t.Fatalf("K=%d: merged bytes %d != %d", k, res.Report.ActualBytes, refImg.TotalBytes())
		}
		if res.Report.ActualFiles != refImg.FileCount() || res.Report.ActualDirs != refImg.DirCount() {
			t.Fatalf("K=%d: merged report counts differ", k)
		}
		if res.Summary() != refImg.Summary() {
			t.Fatalf("K=%d: merged %q, the single-process image is %q", k, res.Summary(), refImg.Summary())
		}
	}
}

// TestShardCountInvariance asserts the merged digest is identical across
// shard counts (without needing the single-process reference).
func TestShardCountInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 777
	var ref string
	for _, k := range []int{1, 2, 4} {
		p := planRoundTrip(t, cfg, k)
		res := p.merge(t, runManifests(t, p, t.TempDir()))
		if ref == "" {
			ref = res.Digest
		} else if res.Digest != ref {
			t.Fatalf("digest differs between shard counts: %s vs %s", res.Digest, ref)
		}
	}
}

// TestWorkersInSeparateRoots checks the shared-nothing property: workers
// materializing into disjoint roots still merge to the same digest.
func TestWorkersInSeparateRoots(t *testing.T) {
	cfg := testConfig()
	p := planRoundTrip(t, cfg, 4)
	manifests := make([]*Manifest, len(p.Plan.Shards))
	for s := range p.Plan.Shards {
		m, err := executeShard(p, s, filepath.Join(t.TempDir(), "w"), WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res := p.merge(t, manifests)
	_, refDigest, _ := singleProcessReference(t, cfg)
	if res.Digest != refDigest {
		t.Fatalf("separate-root merge digest %s != single-process %s", res.Digest, refDigest)
	}
}

// TestMergeRejectsTamperedManifests covers the integrity checks: a flipped
// content hash, altered byte counts, a missing shard, a duplicate shard,
// and a manifest from a different plan must all fail with a clear error.
func TestMergeRejectsTamperedManifests(t *testing.T) {
	cfg := testConfig()
	p := planRoundTrip(t, cfg, 4)
	if len(p.Plan.Shards) < 2 {
		t.Fatalf("want >= 2 shards, got %d", len(p.Plan.Shards))
	}
	good := runManifests(t, p, t.TempDir())

	clone := func() []*Manifest {
		out := make([]*Manifest, len(good))
		for i, m := range good {
			cp := *m
			cp.FileDigests = append([]FileDigest(nil), m.FileDigests...)
			out[i] = &cp
		}
		return out
	}

	check := func(name, wantSubstr string, mutate func(ms []*Manifest) []*Manifest) {
		t.Helper()
		res, err := Merge(p.source(), mutate(clone()))
		if err == nil {
			err = res.Err()
		}
		if err == nil {
			t.Fatalf("%s: merge should fail", name)
		}
		if !strings.Contains(err.Error(), wantSubstr) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSubstr)
		}
	}

	check("tampered content hash", "integrity", func(ms []*Manifest) []*Manifest {
		ms[0].FileDigests[0].SHA256 = strings.Repeat("0", 64)
		return ms // seal not recomputed: self-hash must catch it
	})
	check("resealed tampered hash", "", func(ms []*Manifest) []*Manifest {
		// Even a re-sealed manifest with a wrong size is caught against the plan.
		ms[0].FileDigests[0].Size += 1
		ms[0].Seal()
		return ms
	})
	check("altered byte count", "", func(ms []*Manifest) []*Manifest {
		ms[0].Bytes += 100
		ms[0].Seal()
		return ms
	})
	check("missing shard", "missing manifest", func(ms []*Manifest) []*Manifest {
		return ms[:len(ms)-1]
	})
	check("duplicate shard", "duplicate", func(ms []*Manifest) []*Manifest {
		ms[1] = ms[0]
		return ms
	})
	check("foreign plan", "different plan", func(ms []*Manifest) []*Manifest {
		ms[0].PlanFingerprint = strings.Repeat("a", 64)
		ms[0].Seal()
		return ms
	})
}

// TestMergeRejectsCorruptPlan covers plan-side integrity: corrupted
// fragment bytes, a truncated fragment, a document of no fragment shape, and
// records replayed under a header with edited totals or a wrong format
// version.
func TestMergeRejectsCorruptPlan(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 2)
	merge := func(src PlanSource) error {
		_, err := Merge(src, nil)
		return err
	}
	with := func(frag1 []byte) PlanSource {
		return fragmentSource(context.Background(), [][]byte{p.frags[0], frag1})
	}

	// Flip one byte inside the chunk stream: either the JSON breaks or a
	// chunk hash stops matching — both must fail the merge.
	corrupt := append([]byte(nil), p.frags[1]...)
	corrupt[3*len(corrupt)/4] ^= 0xff
	if merge(with(corrupt)) == nil {
		t.Error("Merge should reject corrupted stream bytes")
	}

	// Drop the trailing chunks: the chunk count no longer matches.
	if merge(with(p.frags[1][:len(p.frags[1])/2])) == nil {
		t.Error("Merge should reject a truncated stream")
	}

	// A v1-style plan (no envelope) must be refused as a damaged fragment
	// rather than a JSON parse failure deep in the stream.
	headless := fragmentSource(context.Background(), [][]byte{[]byte(`{"format_version":1,"seed":1}`), p.frags[1]})
	if err := merge(headless); !errors.Is(err, fsimage.ErrManifestIntegrity) || !strings.Contains(err.Error(), `expected "view"`) {
		t.Errorf("Merge of a fragment without the envelope: got %v", err)
	}

	// The fragments' own records under an edited header.
	under := p.under
	if err := merge(under(p.Plan)); err != nil {
		t.Fatalf("Merge of the records under their own header: %v", err)
	}
	edited := *p.Plan
	edited.Files++
	if merge(under(&edited)) == nil {
		t.Error("Merge should reject edited totals")
	}
	future := *p.Plan
	future.FormatVersion = FormatVersion + 1
	if err := merge(under(&future)); !errors.Is(err, fsimage.ErrPlanVersion) {
		t.Errorf("Merge under an unknown format version: got %v, want ErrPlanVersion", err)
	}

	// Every file handed on as shard 0's: the records are the plan's, but
	// shard 1's stream would carry files of shard 0.
	retag := func(open func(*Plan) (PlanSink, error)) error {
		return p.source()(func(hdr *Plan) (PlanSink, error) {
			sink, err := open(hdr)
			return retagged{sink, 0}, err
		})
	}
	if err := merge(retag); !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("Merge of files carried by another shard's stream: got %v, want ErrManifestIntegrity", err)
	}
}

// TestExecuteShardValidation covers worker-side argument and stream-key
// validation.
func TestExecuteShardValidation(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 2)
	if _, err := executeShard(p, -1, t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("negative shard index should fail")
	}
	if _, err := executeShard(p, len(p.Plan.Shards), t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("out-of-range shard index should fail")
	}
	// A plan whose stream key derives a different stream must be refused.
	v := p.view(t, 0)
	v.Plan.Shards[0].StreamKey = "fork:somethingelse"
	if _, err := executeView(v, DirTarget(t.TempDir()), WorkerOptions{}); err == nil {
		t.Error("incompatible stream key should fail")
	}
	v.Plan.Shards[0].StreamKey = "not a key"
	if _, err := executeView(v, DirTarget(t.TempDir()), WorkerOptions{}); err == nil {
		t.Error("unknown stream key should fail")
	}
}

// TestMetadataOnlyDistributedRun checks the metadata-only path end to end:
// merge succeeds, digests are absent, and the tree holds the right sizes.
func TestMetadataOnlyDistributedRun(t *testing.T) {
	cfg := testConfig()
	p := planRoundTrip(t, cfg, 2)
	outRoot := t.TempDir()
	manifests := make([]*Manifest, len(p.Plan.Shards))
	for s := range p.Plan.Shards {
		m, err := executeShard(p, s, outRoot, WorkerOptions{MetadataOnly: true})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res := p.merge(t, manifests)
	if res.Digest != "" {
		t.Errorf("metadata-only merge should have no content digest, got %s", res.Digest)
	}
	if res.Report.ActualBytes != p.Plan.Bytes {
		t.Errorf("metadata-only merge bytes %d != %d", res.Report.ActualBytes, p.Plan.Bytes)
	}
	// Spot-check one materialized file size.
	v := p.view(t, 0)
	f := v.Files[0]
	st, err := os.Stat(filepath.Join(outRoot, filepath.FromSlash(v.Tree.Path(f.DirID)), f.Name))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size() != f.Size {
		t.Errorf("file 0 size %d, want %d", st.Size(), f.Size)
	}
}

// TestPlanFingerprintSensitivity asserts the fingerprint changes when any
// output-determining field changes.
func TestPlanFingerprintSensitivity(t *testing.T) {
	plan := planRoundTrip(t, testConfig(), 2).Plan
	base := plan.Fingerprint()
	alt := *plan
	alt.Seed++
	if alt.Fingerprint() == base {
		t.Error("fingerprint ignores the seed")
	}
	alt = *plan
	alt.ContentKind = "zero"
	if alt.Fingerprint() == base {
		t.Error("fingerprint ignores the content kind")
	}
	alt = *plan
	alt.Shards = append([]ShardPlan(nil), plan.Shards...)
	alt.Shards[0].Files++
	if alt.Fingerprint() == base {
		t.Error("fingerprint ignores shard expectations")
	}
}
