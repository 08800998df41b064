package distribute

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// TestShardWireRejectsTampering: flipping bytes inside a record chunk must
// be caught by the chunk integrity hash and surface ErrManifestIntegrity.
func TestShardWireRejectsTampering(t *testing.T) {
	doc := string(planRoundTrip(t, testConfig(), 2).frags[0])
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
	base := t.TempDir()
	view, err := DecodeShardView(bytes.NewReader(encodeView(t, v)))
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
// byte-identical fragments (the property that makes the fingerprint a
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
	_, a := fragmentBuffers(t, PlanRequest{Config: cfgBack, MaxShards: 2, ChunkSize: 64})
	_, b := fragmentBuffers(t, PlanRequest{Config: cfgBack, MaxShards: 2, ChunkSize: 64})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("plan build is not deterministic for a normalized spec")
	}
}
