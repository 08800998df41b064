package distribute

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/core"
	"impressions/internal/stats"
)

// smallConfig is the benchmark's SMALL shape at files files: 1.1 KB files
// (lognormal body, mu 6.9, sigma 0.5) in one directory per ten files.
func smallConfig(files int) core.Config {
	return core.Config{NumFiles: files, NumDirs: files / 10, FSSizeBytes: int64(files) * 34_406_400 / 30_000, Seed: 20090225, Parallelism: 1, Mode: core.ModeUserSpecified,
		FileSizeDist: stats.NewHybrid(stats.NewLognormal(6.9, 0.5), stats.NewPareto(core.DefaultParetoK, core.DefaultParetoXm), core.DefaultFileSizeBodyWeight)}
}

// hashedManifest is the sealed manifest of a content run over the view's
// files, each digest a distinct 64-digit hex string.
func hashedManifest(v *ShardView) *Manifest {
	m := &Manifest{FormatVersion: FormatVersion, PlanFingerprint: v.Plan.Fingerprint(), Shard: v.Shard, Dirs: len(v.Dirs), Files: len(v.Files),
		ContentHashed: true, FileDigests: make([]FileDigest, len(v.Files))}
	for i, f := range v.Files {
		m.Bytes += f.Size
		m.FileDigests[i] = FileDigest{ID: f.ID, Size: f.Size, SHA256: fmt.Sprintf("%064x", f.ID)}
	}
	m.Seal()
	return m
}

// smallK2 plans SMALL(30000) as two fragments, distrun_k2's plan, and
// returns fragment 1 and the manifest a worker seals for it.
func smallK2(b *testing.B) (fragment, manifest []byte) {
	b.Helper()
	_, frags := fragmentBuffers(b, PlanRequest{Config: smallConfig(30_000), MaxShards: 2})
	var doc bytes.Buffer
	if err := hashedManifest(smallView(b, frags[1])).Encode(&doc); err != nil {
		b.Fatal(err)
	}
	return frags[1], doc.Bytes()
}

// smallView decodes one fragment of smallK2's plan.
func smallView(b *testing.B, frag []byte) *ShardView {
	b.Helper()
	v, err := DecodeShardView(bytes.NewReader(frag))
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkDecodeShardView is a worker reading its fragment of
// SMALL(30000) planned at K = 2: the envelope, every chunk, the hash
// re-render and the record check.
func BenchmarkDecodeShardView(b *testing.B) {
	frag, _ := smallK2(b)
	b.SetBytes(int64(len(frag)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeShardView(bytes.NewReader(frag)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeManifest is the merge reading the manifest a worker wrote
// for that fragment, one entry per file.
func BenchmarkDecodeManifest(b *testing.B) {
	_, doc := smallK2(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeManifest(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteShard is a worker of distrun_k2 writing its shard: shard 0
// of SMALL(30000) planned at K = 2 (about 15,000 files in 1,500
// directories), executed journaled at Parallelism 1 into an empty
// directory. The tree is removed off the clock; run it with TMPDIR on a
// tmpfs, or it measures the disk.
func BenchmarkWriteShard(b *testing.B) {
	_, frags := fragmentBuffers(b, PlanRequest{Config: smallConfig(30_000), MaxShards: 2})
	v := smallView(b, frags[0])
	base := b.TempDir()
	out, journal := filepath.Join(base, "out"), filepath.Join(base, "journal")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(context.Background(), v, DirTarget(out), WorkerOptions{Parallelism: 1, JournalPath: journal}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(out); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(journal); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
