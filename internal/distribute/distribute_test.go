package distribute

import (
	"bytes"
	"context"
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
// one process, returning the image, its canonical digest, and the tree hash
// of the materialized root.
func singleProcessReference(t *testing.T, cfg core.Config) (*fsimage.Image, string, string) {
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
	return res.Image, digest, treeHash
}

// planRoundTrip builds a plan, encodes it to JSON, decodes and opens it —
// the exact path a worker on another machine takes. The small chunk size
// forces the metadata stream through many chunks even on test-sized images.
func planRoundTrip(t *testing.T, cfg core.Config, shards int) *OpenPlan {
	t.Helper()
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: cfg, MaxShards: shards, ChunkSize: 64})
	if err != nil {
		t.Fatalf("BuildPlan(%d): %v", shards, err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := DecodePlan(&buf)
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	open, err := decoded.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return open
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

// executeShard projects one shard out of a retained plan and materializes
// it under outRoot.
func executeShard(p *OpenPlan, shard int, outRoot string, opts WorkerOptions) (*Manifest, error) {
	v, err := p.ShardView(shard)
	if err != nil {
		return nil, err
	}
	return executeView(v, DirTarget(outRoot), opts)
}

// runManifests executes every shard (each into the shared outRoot) and
// round-trips each manifest through its JSON encoding.
func runManifests(t *testing.T, open *OpenPlan, outRoot string) []*Manifest {
	t.Helper()
	manifests := make([]*Manifest, len(open.Plan.Shards))
	for s := range open.Plan.Shards {
		m, err := executeShard(open, s, outRoot, WorkerOptions{})
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
	refImg, refDigest, refTreeHash := singleProcessReference(t, cfg)

	for _, k := range []int{1, 2, 4} {
		open := planRoundTrip(t, cfg, k)
		if got := len(open.Plan.Shards); got > k {
			t.Fatalf("K=%d: plan has %d shards", k, got)
		}
		if open.Image.FileCount() != refImg.FileCount() || open.Image.TotalBytes() != refImg.TotalBytes() {
			t.Fatalf("K=%d: plan metadata differs from single-process image", k)
		}
		outRoot := t.TempDir()
		manifests := runManifests(t, open, outRoot)
		res, err := Merge(open, manifests)
		if err != nil {
			t.Fatalf("K=%d: Merge: %v", k, err)
		}
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
		if res.Bytes != refImg.TotalBytes() {
			t.Fatalf("K=%d: merged bytes %d != %d", k, res.Bytes, refImg.TotalBytes())
		}
		if res.Report.ActualFiles != refImg.FileCount() || res.Report.ActualDirs != refImg.DirCount() {
			t.Fatalf("K=%d: merged report counts differ", k)
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
		open := planRoundTrip(t, cfg, k)
		res, err := Merge(open, runManifests(t, open, t.TempDir()))
		if err != nil {
			t.Fatalf("K=%d: Merge: %v", k, err)
		}
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
	open := planRoundTrip(t, cfg, 4)
	manifests := make([]*Manifest, len(open.Plan.Shards))
	for s := range open.Plan.Shards {
		m, err := executeShard(open, s, filepath.Join(t.TempDir(), "w"), WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res, err := Merge(open, manifests)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
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
	open := planRoundTrip(t, cfg, 4)
	if len(open.Plan.Shards) < 2 {
		t.Fatalf("want >= 2 shards, got %d", len(open.Plan.Shards))
	}
	good := runManifests(t, open, t.TempDir())

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
		ms := mutate(clone())
		_, err := Merge(open, ms)
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
	check("missing shard", "manifests", func(ms []*Manifest) []*Manifest {
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

// TestOpenRejectsCorruptPlan covers plan-side integrity: corrupted stream
// bytes, a truncated chunk stream, edited totals, and a wrong format
// version.
func TestOpenRejectsCorruptPlan(t *testing.T) {
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: testConfig(), MaxShards: 2, ChunkSize: 64})
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	encoded := buf.Bytes()

	// Flip one byte inside the chunk stream: either the JSON breaks or a
	// chunk hash stops matching — both must fail the decode.
	corrupt := append([]byte(nil), encoded...)
	corrupt[3*len(corrupt)/4] ^= 0xff
	if _, err := DecodePlan(bytes.NewReader(corrupt)); err == nil {
		t.Error("DecodePlan should reject corrupted stream bytes")
	}

	// Drop the trailing chunks: the chunk count no longer matches.
	truncated := append([]byte(nil), encoded[:len(encoded)/2]...)
	if _, err := DecodePlan(bytes.NewReader(truncated)); err == nil {
		t.Error("DecodePlan should reject a truncated stream")
	}

	// A v1-style plan (no header envelope) must be refused with a clear
	// format error rather than a JSON parse failure deep in the stream.
	if _, err := DecodePlan(strings.NewReader(`{"format_version":1,"seed":1}`)); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("DecodePlan on a headerless plan: got %v", err)
	}

	decoded, err := DecodePlan(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	edited := *decoded
	edited.Files++
	if _, err := edited.Open(); err == nil {
		t.Error("Open should reject edited totals")
	}
	future := *decoded
	future.FormatVersion = FormatVersion + 1
	if _, err := future.Open(); err == nil {
		t.Error("Open should reject an unknown format version")
	}
}

// TestExecuteShardValidation covers worker-side argument and stream-key
// validation.
func TestExecuteShardValidation(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	if _, err := executeShard(open, -1, t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("negative shard index should fail")
	}
	if _, err := executeShard(open, len(open.Plan.Shards), t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("out-of-range shard index should fail")
	}
	// A plan whose stream key derives a different stream must be refused.
	open.Plan.Shards[0].StreamKey = "fork:somethingelse"
	if _, err := executeShard(open, 0, t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("incompatible stream key should fail")
	}
	open.Plan.Shards[0].StreamKey = "not a key"
	if _, err := executeShard(open, 0, t.TempDir(), WorkerOptions{}); err == nil {
		t.Error("unparseable stream key should fail")
	}
}

// TestMetadataOnlyDistributedRun checks the metadata-only path end to end:
// merge succeeds, digests are absent, and the tree holds the right sizes.
func TestMetadataOnlyDistributedRun(t *testing.T) {
	cfg := testConfig()
	open := planRoundTrip(t, cfg, 2)
	outRoot := t.TempDir()
	manifests := make([]*Manifest, len(open.Plan.Shards))
	for s := range open.Plan.Shards {
		m, err := executeShard(open, s, outRoot, WorkerOptions{MetadataOnly: true})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	res, err := Merge(open, manifests)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if res.Digest != "" {
		t.Errorf("metadata-only merge should have no content digest, got %s", res.Digest)
	}
	if res.Bytes != open.Image.TotalBytes() {
		t.Errorf("metadata-only merge bytes %d != %d", res.Bytes, open.Image.TotalBytes())
	}
	// Spot-check one materialized file size.
	f := open.Image.Files[0]
	st, err := os.Stat(filepath.Join(outRoot, filepath.FromSlash(open.Image.FilePath(f))))
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
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: testConfig(), MaxShards: 2})
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
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
