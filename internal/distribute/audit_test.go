package distribute

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"impressions/internal/core"
)

// TestAuditManifestsGradesShards covers the fault-tolerant audit: verified,
// missing, tampered, and stale (foreign-plan) manifests each get the right
// per-shard status, MergeAudited refuses the incomplete set, and filling in
// the outstanding shard completes the merge.
func TestAuditManifestsGradesShards(t *testing.T) {
	cfg := testConfig()
	open := planRoundTrip(t, cfg, 4)
	if len(open.Plan.Shards) < 3 {
		t.Fatalf("want >= 3 shards, got %d", len(open.Plan.Shards))
	}
	all := runManifests(t, open, t.TempDir())

	// Present everything except the last shard; tamper shard 0's manifest
	// and rebind shard 1's to a foreign plan.
	missing := len(all) - 1
	tampered := *all[0]
	tampered.FileDigests = append([]FileDigest(nil), all[0].FileDigests...)
	tampered.FileDigests[0].SHA256 = strings.Repeat("0", 64)
	stale := *all[1]
	stale.PlanFingerprint = strings.Repeat("a", 64)
	stale.Seal()
	presented := []*Manifest{&tampered, &stale}
	for _, m := range all[2:missing] {
		presented = append(presented, m)
	}

	audit, err := AuditManifests(open, presented)
	if err != nil {
		t.Fatalf("AuditManifests: %v", err)
	}
	if audit.Complete() {
		t.Fatal("audit of a damaged set reports complete")
	}
	if st := audit.Statuses[0]; st.State != ShardInvalid || st.Err == nil || !strings.Contains(st.Err.Error(), "integrity") {
		t.Errorf("tampered shard 0: %+v", st)
	}
	if st := audit.Statuses[1]; st.State != ShardInvalid || st.Err == nil || !strings.Contains(st.Err.Error(), "different plan") {
		t.Errorf("stale shard 1: %+v", st)
	}
	if st := audit.Statuses[missing]; st.State != ShardMissing {
		t.Errorf("missing shard %d: %+v", missing, st)
	}
	wantOutstanding := []int{0, 1, missing}
	if got := audit.Outstanding(); len(got) != len(wantOutstanding) {
		t.Errorf("Outstanding() = %v, want %v", got, wantOutstanding)
	} else {
		for i := range got {
			if got[i] != wantOutstanding[i] {
				t.Errorf("Outstanding() = %v, want %v", got, wantOutstanding)
				break
			}
		}
	}
	if _, err := MergeAudited(open, audit); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("MergeAudited on incomplete audit: %v", err)
	}

	// Re-presenting the honest manifests completes the audit and the merged
	// digest matches the single-process run — resume never changes bytes.
	audit, err = AuditManifests(open, all)
	if err != nil {
		t.Fatalf("AuditManifests(all): %v", err)
	}
	if !audit.Complete() || audit.Verified() != len(all) {
		t.Fatalf("full set should verify: %+v", audit.Statuses)
	}
	res, err := MergeAudited(open, audit)
	if err != nil {
		t.Fatalf("MergeAudited: %v", err)
	}
	_, refDigest, _ := singleProcessReference(t, cfg)
	if res.Digest != refDigest {
		t.Errorf("resumed merge digest %s != single-process %s", res.Digest, refDigest)
	}
}

// TestVerifyManifest covers the single-manifest check the resume path uses
// to decide skip-vs-regenerate.
func TestVerifyManifest(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	ms := runManifests(t, open, t.TempDir())
	if err := VerifyManifest(open, ms[0]); err != nil {
		t.Errorf("good manifest: %v", err)
	}
	stale := *ms[0]
	stale.PlanFingerprint = strings.Repeat("b", 64)
	stale.Seal()
	if err := VerifyManifest(open, &stale); err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Errorf("stale manifest: %v", err)
	}
	unsealed := *ms[1]
	unsealed.ManifestSHA256 = ""
	if err := VerifyManifest(open, &unsealed); err == nil {
		t.Error("unsealed manifest should fail")
	}
	if err := VerifyManifest(open, nil); err == nil {
		t.Error("nil manifest should fail")
	}
	foreign := *ms[0]
	foreign.Shard = 99
	if err := VerifyManifest(open, &foreign); err == nil {
		t.Error("unknown shard should fail")
	}
}

// maxWriteWriter records the largest single Write it sees.
type maxWriteWriter struct {
	total    int64
	maxWrite int
	writes   int
}

func (w *maxWriteWriter) Write(p []byte) (int, error) {
	w.total += int64(len(p))
	if len(p) > w.maxWrite {
		w.maxWrite = len(p)
	}
	w.writes++
	return len(p), nil
}

// largePlanConfig is big enough that the serialized metadata dwarfs any
// single chunk: ~20k files over ~3k dirs.
func largePlanConfig() core.Config {
	return core.Config{NumFiles: 20000, NumDirs: 3000, FSSizeBytes: 20000 * 256, Seed: 99, Parallelism: 1}
}

// TestPlanStreamingMemoryBound is the O(chunk) contract made concrete: when
// a large plan is encoded, no single write (= no single in-memory buffer of
// serialized metadata) may approach the size of the whole stream. Before
// the chunked format, the embedded image was built as one buffer and this
// test's bound fails by an order of magnitude.
func TestPlanStreamingMemoryBound(t *testing.T) {
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: largePlanConfig(), MaxShards: 4, ChunkSize: 2048})
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var w maxWriteWriter
	if err := plan.Encode(&w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if w.total < 1<<20 {
		t.Fatalf("test image too small to be meaningful: %d bytes", w.total)
	}
	if int64(w.maxWrite)*4 > w.total {
		t.Errorf("largest single write is %d of %d total bytes — encoder is buffering the image, not streaming chunks", w.maxWrite, w.total)
	}
	if w.writes < plan.Chunks {
		t.Errorf("%d writes for %d chunks — chunks are being coalesced into one buffer", w.writes, plan.Chunks)
	}
}

// BenchmarkPlanRoundTrip tracks the cost (time and allocations) of
// streaming a large plan through encode + decode.
func BenchmarkPlanRoundTrip(b *testing.B) {
	plan, err := BuildPlan(context.Background(), PlanRequest{Config: largePlanConfig(), MaxShards: 4})
	if err != nil {
		b.Fatalf("BuildPlan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		b.Fatalf("Encode: %v", err)
	}
	encoded := buf.Bytes()
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodePlan(bytes.NewReader(encoded)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAuditMixedModesMajorityWins: one wrong-mode shard must not condemn
// the correct majority — the minority shard is the invalid one, so the
// re-run guidance regenerates the one mistake, not the whole run.
func TestAuditMixedModesMajorityWins(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 4)
	if len(open.Plan.Shards) < 3 {
		t.Fatalf("want >= 3 shards, got %d", len(open.Plan.Shards))
	}
	manifests := make([]*Manifest, len(open.Plan.Shards))
	for s := range open.Plan.Shards {
		opts := WorkerOptions{MetadataOnly: true}
		if s == 0 {
			opts.MetadataOnly = false // the one mistaken full-content shard
		}
		m, err := executeShard(open, s, t.TempDir(), opts)
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	audit, err := AuditManifests(open, manifests)
	if err != nil {
		t.Fatalf("AuditManifests: %v", err)
	}
	if audit.ContentHashed {
		t.Error("majority of shards are metadata-only; audit anchored on the minority")
	}
	if st := audit.Statuses[0]; st.State != ShardInvalid || st.Err == nil || !strings.Contains(st.Err.Error(), "mixes") {
		t.Errorf("the mistaken shard 0 should be the invalid one: %+v", st)
	}
	for s := 1; s < len(audit.Statuses); s++ {
		if audit.Statuses[s].State != ShardVerified {
			t.Errorf("correct shard %d condemned: %+v", s, audit.Statuses[s])
		}
	}
}
