package distribute

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// encodedPlan builds and encodes a plan for cfg, returning the document
// bytes and the opened plan.
func encodedTarPlan(t *testing.T, shards int) ([]byte, *OpenPlan) {
	t.Helper()
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: testConfig(), MaxShards: shards, ChunkSize: 64})
	if err != nil {
		t.Fatalf("BuildPlan(%d): %v", shards, err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	open, err := plan.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return buf.Bytes(), open
}

// TestTarWorkersStitchMatchesMonolithic is the tar counterpart of the
// headline invariant: plan → K tar-segment workers → stitch produces the
// byte-identical archive a single process serializes from the same plan,
// for K ∈ {1, 2, 4}, and the workers' manifests merge to the single-process
// canonical digest.
func TestTarWorkersStitchMatchesMonolithic(t *testing.T) {
	cfg := testConfig()
	_, refDigest, _ := singleProcessReference(t, cfg)

	for _, k := range []int{1, 2, 4} {
		doc, open := encodedTarPlan(t, k)

		var mono bytes.Buffer
		_, digest, err := WritePlanTar(bytes.NewReader(doc), &mono, imgfmt.Options{}, nil)
		if err != nil {
			t.Fatalf("K=%d: WritePlanTar: %v", k, err)
		}
		if digest != refDigest {
			t.Errorf("K=%d: monolithic tar digest %s, reference %s", k, digest, refDigest)
		}

		shards := len(open.Plan.Shards)
		segments := make([]io.Reader, shards)
		manifests := make([]*Manifest, shards)
		for s := 0; s < shards; s++ {
			v, err := open.ShardView(s)
			if err != nil {
				t.Fatalf("K=%d: ShardView(%d): %v", k, s, err)
			}
			var seg bytes.Buffer
			m, err := executeView(v, TarTarget(&seg), WorkerOptions{})
			if err != nil {
				t.Fatalf("K=%d: Execute(%d): %v", k, s, err)
			}
			segments[s] = bytes.NewReader(seg.Bytes())
			manifests[s] = m
		}

		var stitched bytes.Buffer
		if _, err := StitchPlanTar(bytes.NewReader(doc), segments, &stitched, imgfmt.Options{}); err != nil {
			t.Fatalf("K=%d: StitchPlanTar: %v", k, err)
		}
		if !bytes.Equal(stitched.Bytes(), mono.Bytes()) {
			t.Errorf("K=%d: stitched tar (%d bytes) differs from monolithic (%d bytes)", k, stitched.Len(), mono.Len())
		}

		// Tar workers seal ordinary manifests: the existing merge accepts
		// them and reproduces the canonical digest.
		res, err := Merge(open, manifests)
		if err != nil {
			t.Fatalf("K=%d: Merge: %v", k, err)
		}
		if res.Digest != refDigest {
			t.Errorf("K=%d: merged tar-worker digest %s, reference %s", k, res.Digest, refDigest)
		}
	}
}

// TestWritePlanTarMetadataOnly: the metadata-only archive keeps entry sizes
// but reports no digest.
func TestWritePlanTarMetadataOnly(t *testing.T) {
	doc, _ := encodedTarPlan(t, 2)
	var out bytes.Buffer
	p, digest, err := WritePlanTar(bytes.NewReader(doc), &out, imgfmt.Options{MetadataOnly: true}, nil)
	if err != nil {
		t.Fatalf("WritePlanTar: %v", err)
	}
	if digest != "" {
		t.Errorf("metadata-only run produced digest %q", digest)
	}
	if out.Len() == 0 {
		t.Error("metadata-only archive is empty")
	}
	if p.Files == 0 {
		t.Error("decoded plan reports zero files")
	}
}

// TestTarWorkerIdenticalAtAnyParallelism: WorkerOptions.Parallelism reaches
// the tar worker's content engine and changes neither the segment nor the
// sealed manifest.
func TestTarWorkerIdenticalAtAnyParallelism(t *testing.T) {
	_, open := encodedTarPlan(t, 2)
	for s := range open.Plan.Shards {
		var wantSeg, wantManifest []byte
		for _, j := range []int{1, 2, 8} {
			v, err := open.ShardView(s)
			if err != nil {
				t.Fatalf("ShardView(%d): %v", s, err)
			}
			var seg, manifest bytes.Buffer
			m, err := executeView(v, TarTarget(&seg), WorkerOptions{Parallelism: j})
			if err != nil {
				t.Fatalf("shard %d j=%d: Execute: %v", s, j, err)
			}
			if err := m.Encode(&manifest); err != nil {
				t.Fatalf("shard %d j=%d: encoding manifest: %v", s, j, err)
			}
			if wantSeg == nil {
				wantSeg, wantManifest = seg.Bytes(), manifest.Bytes()
				continue
			}
			if !bytes.Equal(seg.Bytes(), wantSeg) {
				t.Errorf("shard %d: segment at j=%d differs from j=1", s, j)
			}
			if !bytes.Equal(manifest.Bytes(), wantManifest) {
				t.Errorf("shard %d: manifest at j=%d differs from j=1", s, j)
			}
		}
	}
}

// TestWritePlanTarReleasesWorkersOnBadPlan: a plan document that breaks off
// mid-stream fails WritePlanTar from outside the sink, which therefore
// never hears of it; the sink's content workers must still not outlive the
// call (the daemon serves image.tar for as long as it lives).
func TestWritePlanTarReleasesWorkersOnBadPlan(t *testing.T) {
	doc, _ := encodedTarPlan(t, 2)
	baseline := runtime.NumGoroutine()
	digests := 0
	opts := imgfmt.Options{Parallelism: 1, OnDigest: func(fsimage.File, string) { digests++ }}
	if _, _, err := WritePlanTar(bytes.NewReader(doc[:len(doc)*9/10]), io.Discard, opts, nil); err == nil {
		t.Fatal("WritePlanTar accepted a truncated plan document")
	}
	if digests == 0 {
		t.Fatal("the plan broke off before any file was written: the test would show nothing")
	}
	// The workers are cancelled, not joined, on this path.
	checkGoroutines(t, baseline)
}
