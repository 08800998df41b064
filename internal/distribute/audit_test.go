package distribute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// TestMergeGradesShards covers the fault-tolerant grading: verified,
// missing, tampered, and stale (foreign-plan) manifests each get the right
// per-shard status, an incomplete set yields no digest, and filling in the
// outstanding shards completes the merge.
func TestMergeGradesShards(t *testing.T) {
	cfg := testConfig()
	p := planRoundTrip(t, cfg, 4)
	if len(p.Plan.Shards) < 3 {
		t.Fatalf("want >= 3 shards, got %d", len(p.Plan.Shards))
	}
	all := runManifests(t, p, t.TempDir())

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

	res, err := Merge(p.source(), presented)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if res.Complete() {
		t.Fatal("merge of a damaged set reports complete")
	}
	if st := res.Statuses[0]; st.State != ShardInvalid || st.Err == nil || !strings.Contains(st.Err.Error(), "integrity") {
		t.Errorf("tampered shard 0: %+v", st)
	}
	if st := res.Statuses[1]; st.State != ShardInvalid || st.Err == nil || !strings.Contains(st.Err.Error(), "different plan") {
		t.Errorf("stale shard 1: %+v", st)
	}
	if st := res.Statuses[missing]; st.State != ShardMissing {
		t.Errorf("missing shard %d: %+v", missing, st)
	}
	for s := 2; s < missing; s++ {
		if res.Statuses[s].State != ShardVerified {
			t.Errorf("honest shard %d: %+v", s, res.Statuses[s])
		}
	}
	if res.Verified() != missing-2 || res.Digest != "" || res.Err() == nil {
		t.Errorf("incomplete merge: %d verified, digest %q, error %v", res.Verified(), res.Digest, res.Err())
	}

	// Re-presenting the honest manifests completes the merge, and the digest
	// matches the single-process run — resume never changes bytes.
	res = p.merge(t, all)
	if res.Verified() != len(all) {
		t.Fatalf("full set should verify: %+v", res.Statuses)
	}
	_, refDigest := singleProcessReference(t, cfg)
	if res.Digest != refDigest {
		t.Errorf("resumed merge digest %s != single-process %s", res.Digest, refDigest)
	}
}

// TestMergeGradesMalformedHash: a manifest resealed with a content hash
// that is not 64 hex digits is its shard's grade, ShardInvalid with
// ErrManifestIntegrity, and the other shards still verify.
func TestMergeGradesMalformedHash(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	ms := runManifests(t, p, t.TempDir())
	const bad = 1
	if len(ms) != 3 || len(ms[bad].FileDigests) == 0 {
		t.Fatalf("want 3 shards, shard %d with files: %d shards", bad, len(ms))
	}
	resealed := *ms[bad]
	resealed.FileDigests = append([]FileDigest(nil), resealed.FileDigests...)
	resealed.FileDigests[0].SHA256 = "zz"
	resealed.Seal()
	res, err := Merge(p.source(), []*Manifest{ms[0], &resealed, ms[2]})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for s, st := range res.Statuses {
		if s == bad && (st.State != ShardInvalid || !errors.Is(st.Err, fsimage.ErrManifestIntegrity)) {
			t.Errorf("shard %d with a malformed hash: %+v", s, st)
		} else if s != bad && st.State != ShardVerified {
			t.Errorf("honest shard %d: %+v", s, st)
		}
	}
}

// TestManifestCheckVerify covers the O(shards) check a scheduler commits
// shards by: it accepts what Merge verifies and refuses what Merge would
// grade invalid, a resealed manifest with another entry size included.
func TestManifestCheckVerify(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 2)
	check, err := NewManifestCheck(p.source())
	if err != nil {
		t.Fatalf("NewManifestCheck: %v", err)
	}
	if check.Plan.Fingerprint() != p.Plan.Fingerprint() {
		t.Fatalf("the check holds plan %s, the document is %s", check.Plan.Fingerprint(), p.Plan.Fingerprint())
	}
	ms := runManifests(t, p, t.TempDir())
	for _, m := range ms {
		if err := check.Verify(m); err != nil {
			t.Errorf("good manifest of shard %d: %v", m.Shard, err)
		}
	}
	reseal := func(m Manifest, edit func(*Manifest)) *Manifest {
		m.FileDigests = append([]FileDigest(nil), m.FileDigests...)
		edit(&m)
		m.Seal()
		return &m
	}
	for name, bad := range map[string]*Manifest{
		"stale":            reseal(*ms[0], func(m *Manifest) { m.PlanFingerprint = strings.Repeat("b", 64) }),
		"unsealed":         func() *Manifest { m := *ms[1]; m.ManifestSHA256 = ""; return &m }(),
		"unknown shard":    func() *Manifest { m := *ms[0]; m.Shard = 99; return &m }(),
		"another size":     reseal(*ms[0], func(m *Manifest) { m.FileDigests[0].Size++ }),
		"another file":     reseal(*ms[1], func(m *Manifest) { m.FileDigests[0].ID++ }),
		"two files turned": reseal(*ms[1], func(m *Manifest) { m.FileDigests[0], m.FileDigests[1] = m.FileDigests[1], m.FileDigests[0] }),
		"no content hash":  reseal(*ms[0], func(m *Manifest) { m.FileDigests[1].SHA256 = "" }),
		"not hex":          reseal(*ms[0], func(m *Manifest) { m.FileDigests[1].SHA256 = "zz" }),
		"nil":              nil,
	} {
		err := check.Verify(bad)
		if err == nil {
			t.Errorf("%s manifest accepted", name)
			continue
		}
		if bad == nil {
			continue
		}
		if res, merr := Merge(p.source(), []*Manifest{bad}); merr == nil && res.Verified() > 0 {
			t.Errorf("%s manifest: the check refuses it (%v), the merge verifies it", name, err)
		}
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
// a large plan is encoded, no single write to a fragment (= no single
// in-memory buffer of serialized metadata) may approach the size of the
// plan's fragments together. Before the chunked format, the embedded image
// was built as one buffer and this test's bound fails by an order of
// magnitude.
func TestPlanStreamingMemoryBound(t *testing.T) {
	writers := make([]maxWriteWriter, 4)
	plan, err := PartitionPlan(context.Background(), PlanRequest{Config: largePlanConfig(), MaxShards: len(writers), ChunkSize: 2048},
		func(s int) (io.WriteCloser, error) { return nopWriteCloser{&writers[s]}, nil })
	if err != nil {
		t.Fatalf("PartitionPlan: %v", err)
	}
	var total int64
	writes, maxWrite := 0, 0
	for _, w := range writers[:len(plan.Shards)] {
		total += w.total
		writes += w.writes
		maxWrite = max(maxWrite, w.maxWrite)
	}
	if total < 1<<20 {
		t.Fatalf("test image too small to be meaningful: %d bytes", total)
	}
	if int64(maxWrite)*4 > total {
		t.Errorf("largest single write is %d of %d total bytes — encoder is buffering the image, not streaming chunks", maxWrite, total)
	}
	// The record stream's chunks, each fragment's file chunks among them.
	if chunks := (plan.Dirs+plan.ChunkSize-1)/plan.ChunkSize + (plan.Files+plan.ChunkSize-1)/plan.ChunkSize; writes < chunks {
		t.Errorf("%d writes for %d chunks — chunks are being coalesced into one buffer", writes, chunks)
	}
}

// BenchmarkPlanRoundTrip tracks the cost (time and allocations) of
// streaming a large plan through encode + decode: one write of the resolved
// plan's fragments, one replay of them through the merge's record check.
func BenchmarkPlanRoundTrip(b *testing.B) {
	rp, err := PlanRequest{Config: largePlanConfig(), MaxShards: 4}.Resolve(context.Background())
	if err != nil {
		b.Fatalf("Resolve: %v", err)
	}
	defer rp.Close()
	bufs := make([]bytes.Buffer, len(rp.Plan.Shards))
	if err := rp.WriteFragments(context.Background(), func(s int) (io.WriteCloser, error) { return nopWriteCloser{&bufs[s]}, nil }); err != nil {
		b.Fatalf("WriteFragments: %v", err)
	}
	frags := make([][]byte, len(bufs))
	size := 0
	for s := range bufs {
		frags[s] = bufs[s].Bytes()
		size += len(frags[s])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rp.WriteFragments(context.Background(), func(int) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }); err != nil {
			b.Fatal(err)
		}
		if _, err := Merge(fragmentSource(context.Background(), frags), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFragments tracks the cost (time and allocations) of the
// fragment write alone: the 100k-file default-model plan written into
// discarding writers as 8 fragments at Parallelism 2 (the plan_meta shape)
// and at 1 (distrun's plan build, a ring of one piece and no sealing
// goroutine), and as one fragment at 2. Where the process CPU time is known
// it reports cores, CPU over wall, so the sealer's parallelism shows
// without the CLI.
func BenchmarkWriteFragments(b *testing.B) {
	for _, c := range []struct{ j, k int }{{2, 8}, {2, 1}, {1, 8}} {
		b.Run(fmt.Sprintf("j%d/K%d", c.j, c.k), func(b *testing.B) {
			rp, err := PlanRequest{Config: core.Config{NumFiles: 100_000, Seed: 20090225, Parallelism: c.j}, MaxShards: c.k}.Resolve(context.Background())
			if err != nil {
				b.Fatalf("Resolve: %v", err)
			}
			defer rp.Close()
			b.ReportAllocs()
			cpu0, cpuKnown := processCPU()
			start := time.Now()
			for b.Loop() {
				if err := rp.WriteFragments(context.Background(), func(int) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }); err != nil {
					b.Fatal(err)
				}
			}
			if cpu1, _ := processCPU(); cpuKnown {
				b.ReportMetric(float64(cpu1-cpu0)/float64(time.Since(start)), "cores")
			}
		})
	}
}

// TestAuditMixedModesMajorityWins: one wrong-mode shard must not condemn
// the correct majority — the minority shard is the invalid one, so the
// re-run guidance regenerates the one mistake, not the whole run.
func TestAuditMixedModesMajorityWins(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 4)
	if len(p.Plan.Shards) < 3 {
		t.Fatalf("want >= 3 shards, got %d", len(p.Plan.Shards))
	}
	manifests := make([]*Manifest, len(p.Plan.Shards))
	for s := range p.Plan.Shards {
		opts := WorkerOptions{MetadataOnly: true}
		if s == 0 {
			opts.MetadataOnly = false // the one mistaken full-content shard
		}
		m, err := executeShard(p, s, t.TempDir(), opts)
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = m
	}
	audit, err := Merge(p.source(), manifests)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if audit.ContentHashed {
		t.Error("majority of shards are metadata-only; audit anchored on the minority")
	}
	if st := audit.Statuses[0]; st.State != ShardInvalid || !errors.Is(st.Err, fsimage.ErrManifestIntegrity) || !strings.Contains(st.Err.Error(), "mixes") {
		t.Errorf("the mistaken shard 0 should be the invalid one: %+v", st)
	}
	for s := 1; s < len(audit.Statuses); s++ {
		if audit.Statuses[s].State != ShardVerified {
			t.Errorf("correct shard %d condemned: %+v", s, audit.Statuses[s])
		}
	}
}
