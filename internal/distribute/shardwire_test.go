package distribute

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// TestShardWireRoundTrip: a shard view encoded to its wire document and
// decoded back must be execution-equivalent to the original — same plan
// fingerprint (so manifests bind identically), same shard membership, same
// records.
func TestShardWireRoundTrip(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	for s := range p.Plan.Shards {
		v := p.view(t, s)
		var buf bytes.Buffer
		if err := v.Encode(&buf); err != nil {
			t.Fatalf("shard %d Encode: %v", s, err)
		}
		got, err := DecodeShardView(&buf)
		if err != nil {
			t.Fatalf("shard %d DecodeShardView: %v", s, err)
		}
		if got.Plan.Fingerprint() != p.Plan.Fingerprint() {
			t.Fatalf("shard %d: decoded plan fingerprint diverged", s)
		}
		if got.Shard != s || len(got.Files) != len(v.Files) || len(got.Dirs) != len(v.Dirs) {
			t.Fatalf("shard %d: decoded view shape (%d dirs, %d files) != original (%d, %d)",
				s, len(got.Dirs), len(got.Files), len(v.Dirs), len(v.Files))
		}
		for i := range v.Files {
			if got.Files[i] != v.Files[i] {
				t.Fatalf("shard %d: file record %d diverged: %+v != %+v", s, i, got.Files[i], v.Files[i])
			}
		}
	}
}

// TestShardWireExecutesIdentically: a worker executing a wire-decoded view
// must produce the same sealed manifest as one executing the view pruned
// straight from the plan file.
func TestShardWireExecutesIdentically(t *testing.T) {
	v := planRoundTrip(t, testConfig(), 2).view(t, 1)
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wire, err := DecodeShardView(&buf)
	if err != nil {
		t.Fatalf("DecodeShardView: %v", err)
	}
	mRef, err := executeView(v, DirTarget(t.TempDir()), WorkerOptions{})
	if err != nil {
		t.Fatalf("Execute(local): %v", err)
	}
	mWire, err := executeView(wire, DirTarget(t.TempDir()), WorkerOptions{})
	if err != nil {
		t.Fatalf("Execute(wire): %v", err)
	}
	if mRef.ManifestSHA256 != mWire.ManifestSHA256 {
		t.Fatalf("manifest diverged: local %s, wire %s", mRef.ManifestSHA256, mWire.ManifestSHA256)
	}
}

// TestShardWireRejectsTampering: flipping bytes inside a record chunk must
// be caught by the chunk integrity hash and surface ErrManifestIntegrity.
func TestShardWireRejectsTampering(t *testing.T) {
	v := planRoundTrip(t, testConfig(), 2).view(t, 0)
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	doc := buf.String()
	tampered := strings.Replace(doc, `"Size":`, `"Size":1`, 1)
	if tampered == doc {
		t.Fatal("test setup: no size field found to tamper with")
	}
	_, err := DecodeShardView(strings.NewReader(tampered))
	if err == nil {
		t.Fatal("DecodeShardView accepted a tampered document")
	}
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Fatalf("tampering surfaced %v, want ErrManifestIntegrity", err)
	}
}

// TestShardDocumentStaysUnderOut: a shard document whose directory holding
// files is named ".." would have those files written beside the output
// root. Decoding it fails typed, and nothing lands beside out.
func TestShardDocumentStaysUnderOut(t *testing.T) {
	v := planRoundTrip(t, testConfig(), 2).view(t, 0)
	renamed := false
	for _, f := range v.Files {
		if d := &v.Tree.Dirs[f.DirID]; d.Depth == 1 {
			d.Name, renamed = "..", true
			break
		}
	}
	if !renamed {
		t.Fatal("no depth-1 directory of the shard holds a file")
	}
	var doc bytes.Buffer
	if err := v.Encode(&doc); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	base := t.TempDir()
	view, err := DecodeShardView(&doc)
	if err == nil {
		_, err = Execute(context.Background(), view, DirTarget(filepath.Join(base, "out")), WorkerOptions{})
	}
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("a shard document with a directory named ..: got %v, want ErrManifestIntegrity", err)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out" {
			t.Errorf("%s was written beside the output root", e.Name())
		}
	}
}

// TestSpecFingerprintNormalizes: two differently-written specs resolving to
// the same generation inputs share a fingerprint; changing any input that
// changes the plan (seed, sharding, chunking) changes it.
func TestSpecFingerprintNormalizes(t *testing.T) {
	cfg := testConfig()
	cfg.SimulateDisk = true // normalization must force this off
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	canonical := gen.Spec()

	sparse := fsimage.Spec{Seed: cfg.Seed, NumFiles: cfg.NumFiles, NumDirs: cfg.NumDirs, FSSizeBytes: cfg.FSSizeBytes}
	fp1, err := SpecFingerprint(canonical, 2, 64)
	if err != nil {
		t.Fatalf("SpecFingerprint(canonical): %v", err)
	}
	fp2, err := SpecFingerprint(sparse, 2, 64)
	if err != nil {
		t.Fatalf("SpecFingerprint(sparse): %v", err)
	}
	if fp1 != fp2 {
		t.Fatalf("equivalent specs fingerprint differently: %s != %s", fp1, fp2)
	}

	if fpShards, _ := SpecFingerprint(sparse, 3, 64); fpShards == fp1 {
		t.Fatal("shard count not folded into fingerprint")
	}
	if fpChunk, _ := SpecFingerprint(sparse, 2, 128); fpChunk == fp1 {
		t.Fatal("chunk size not folded into fingerprint")
	}
	other := sparse
	other.Seed = cfg.Seed + 1
	if fpSeed, _ := SpecFingerprint(other, 2, 64); fpSeed == fp1 {
		t.Fatal("seed not folded into fingerprint")
	}

	if _, err := SpecFingerprint(sparse, 0, 64); !errors.Is(err, fsimage.ErrInvalidSpec) {
		t.Fatalf("shard count 0 surfaced %v, want ErrInvalidSpec", err)
	}
}

// TestSpecFingerprintMatchesPlan: equal fingerprints must imply
// byte-identical plan documents (the property that makes the fingerprint a
// cache key).
func TestSpecFingerprintMatchesPlan(t *testing.T) {
	cfg := testConfig()
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	spec := gen.Spec()
	norm, err := NormalizeSpec(spec)
	if err != nil {
		t.Fatalf("NormalizeSpec: %v", err)
	}
	cfgBack, err := core.ConfigFromSpec(norm)
	if err != nil {
		t.Fatalf("ConfigFromSpec: %v", err)
	}
	var a, b bytes.Buffer
	if _, err := (PlanRequest{Config: cfgBack, MaxShards: 2, ChunkSize: 64}).Stream(context.Background(), &a); err != nil {
		t.Fatalf("Stream(a): %v", err)
	}
	if _, err := (PlanRequest{Config: cfgBack, MaxShards: 2, ChunkSize: 64}).Stream(context.Background(), &b); err != nil {
		t.Fatalf("Stream(b): %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("plan build is not deterministic for a normalized spec")
	}
}
