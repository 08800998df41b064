package distribute

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// TestTarWorkersStitchMatchesMonolithic is the tar counterpart of the
// headline invariant: plan → K tar-segment workers → stitch produces the
// byte-identical archive a single process serializes from the same plan,
// for K ∈ {1, 2, 4}, and the workers' manifests merge to the single-process
// canonical digest.
func TestTarWorkersStitchMatchesMonolithic(t *testing.T) {
	cfg := testConfig()
	_, refDigest := singleProcessReference(t, cfg)

	for _, k := range []int{1, 2, 4} {
		p := planRoundTrip(t, testConfig(), k)

		var mono bytes.Buffer
		_, digest, err := WritePlanTar(p.source(), &mono, imgfmt.Options{}, nil)
		if err != nil {
			t.Fatalf("K=%d: WritePlanTar: %v", k, err)
		}
		if digest != refDigest {
			t.Errorf("K=%d: monolithic tar digest %s, reference %s", k, digest, refDigest)
		}

		shards := len(p.Plan.Shards)
		segments := make([]io.Reader, shards)
		manifests := make([]*Manifest, shards)
		for s := 0; s < shards; s++ {
			var seg bytes.Buffer
			m, err := executeView(p.view(t, s), TarTarget(&seg), WorkerOptions{})
			if err != nil {
				t.Fatalf("K=%d: Execute(%d): %v", k, s, err)
			}
			segments[s] = bytes.NewReader(seg.Bytes())
			manifests[s] = m
		}

		var stitched bytes.Buffer
		if _, err := StitchPlanTar(p.source(), segments, &stitched, imgfmt.Options{}); err != nil {
			t.Fatalf("K=%d: StitchPlanTar: %v", k, err)
		}
		if !bytes.Equal(stitched.Bytes(), mono.Bytes()) {
			t.Errorf("K=%d: stitched tar (%d bytes) differs from monolithic (%d bytes)", k, stitched.Len(), mono.Len())
		}

		// Tar workers seal ordinary manifests: the merge accepts them and
		// reproduces the canonical digest.
		if res := p.merge(t, manifests); res.Digest != refDigest {
			t.Errorf("K=%d: merged tar-worker digest %s, reference %s", k, res.Digest, refDigest)
		}
	}
}

// TestWritePlanTarMetadataOnly: the metadata-only archive keeps entry sizes
// but reports no digest.
func TestWritePlanTarMetadataOnly(t *testing.T) {
	var out bytes.Buffer
	p, digest, err := WritePlanTar(planRoundTrip(t, testConfig(), 2).source(), &out, imgfmt.Options{MetadataOnly: true}, nil)
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
	p := planRoundTrip(t, testConfig(), 2)
	for s := range p.Plan.Shards {
		var wantSeg, wantManifest []byte
		for _, j := range []int{1, 2, 8} {
			var seg, manifest bytes.Buffer
			m, err := executeView(p.view(t, s), TarTarget(&seg), WorkerOptions{Parallelism: j})
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

// TestWritePlanTarReleasesWorkersOnBadPlan: a plan whose last fragment
// breaks off mid-stream fails WritePlanTar from outside the sink, which
// therefore never hears of it; the sink's content workers must still not
// outlive the call (the daemon serves image.tar for as long as it lives).
func TestWritePlanTarReleasesWorkersOnBadPlan(t *testing.T) {
	frags := planRoundTrip(t, testConfig(), 2).frags
	frags[1] = frags[1][:len(frags[1])*9/10]
	baseline := runtime.NumGoroutine()
	digests := 0
	opts := imgfmt.Options{Parallelism: 1, OnDigest: func(fsimage.File, string) { digests++ }}
	if _, _, err := WritePlanTar(fragmentSource(context.Background(), frags), io.Discard, opts, nil); err == nil {
		t.Fatal("WritePlanTar accepted a truncated plan")
	}
	if digests == 0 {
		t.Fatal("the plan broke off before any file was written: the test would show nothing")
	}
	// The workers are cancelled, not joined, on this path.
	checkGoroutines(t, baseline)
}

// TestWritePlanTarChecksTheShardTable: WritePlanTar holds the plan to its
// shard table as Merge does. One file's expectation moved from shard 1 to
// shard 2 keeps every sum of the header, and both refuse it.
func TestWritePlanTarChecksTheShardTable(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	moved := *p.Plan
	moved.Shards = slices.Clone(p.Plan.Shards)
	moved.Shards[1].Files--
	moved.Shards[2].Files++
	if _, err := Merge(p.under(&moved), nil); !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("Merge: got %v, want ErrManifestIntegrity", err)
	}
	if _, digest, err := WritePlanTar(p.under(&moved), io.Discard, imgfmt.Options{}, nil); !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("WritePlanTar: got digest %q and %v, want ErrManifestIntegrity", digest, err)
	}
}
