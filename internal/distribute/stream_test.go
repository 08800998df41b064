package distribute

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/core"
	"impressions/internal/stats"
)

// TestWorkerDecodesOnlyItsShard is the worker-memory regression test: a
// worker's decode of its fragment must retain exactly the shard's file
// records and directories — never the image's.
func TestWorkerDecodesOnlyItsShard(t *testing.T) {
	cfg := core.Config{NumFiles: 2000, NumDirs: 300, FSSizeBytes: 2000 * 512, Seed: 77, Parallelism: 1}
	plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: 128})
	if len(plan.Shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(plan.Shards))
	}
	for s, sp := range plan.Shards {
		view, err := DecodeShardView(bytes.NewReader(frags[s]))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		if got := len(view.Files); got != sp.Files || got >= plan.Files {
			t.Errorf("shard %d retained %d file records, plan assigns it %d of %d", s, got, sp.Files, plan.Files)
		}
		if len(view.Dirs) != sp.Dirs {
			t.Errorf("shard %d sees %d dirs, plan says %d", s, len(view.Dirs), sp.Dirs)
		}
	}
}

// liveHeapPeak samples the live heap while fn runs — the bytes the GC it
// forces before each read marked live, so neither floating garbage nor what
// fn's goroutines allocate between that GC and the read counts — and
// returns the peak observed growth over the pre-run baseline in bytes.
func liveHeapPeak(t *testing.T, fn func()) uint64 {
	t.Helper()
	live := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	baseline := live()
	var peak atomic.Uint64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if n := live(); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()
	fn()
	close(quit)
	<-done
	if peak.Load() < baseline {
		return 0
	}
	return peak.Load() - baseline
}

// TestMergeMemoryBound: the one merge holds the tree, the partition and a
// chunk of records per fragment beside the manifests it is handed, never the
// plan's file records, and no tree per fragment. It merges SMALL(300000) — the
// benchmark's small-file shape at 300k files in 30k directories, 28 MB of
// fragments — as 2 and as 8 fragments against sealed manifests built from
// their records, and bounds the peak live heap beyond them (liveHeapPeak's
// baseline is taken with the manifests and the fragments loaded).
func TestMergeMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("300k-file merge skipped in -short")
	}
	cfg := core.Config{NumFiles: 300_000, NumDirs: 30_000, FSSizeBytes: 344_064_000, Seed: 20090225, Parallelism: 1, Mode: core.ModeUserSpecified,
		FileSizeDist: stats.NewHybrid(stats.NewLognormal(6.9, 0.5), stats.NewPareto(core.DefaultParetoK, core.DefaultParetoXm), core.DefaultFileSizeBodyWeight)}
	for _, k := range []int{2, 8} {
		plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: k})
		manifests := make([]*Manifest, len(plan.Shards))
		for s := range manifests {
			v, err := DecodeShardView(bytes.NewReader(frags[s]))
			if err != nil {
				t.Fatalf("K=%d DecodeShardView(%d): %v", k, s, err)
			}
			m := &Manifest{FormatVersion: FormatVersion, PlanFingerprint: plan.Fingerprint(), Shard: s, Dirs: len(v.Dirs), Files: len(v.Files),
				ContentHashed: true, FileDigests: make([]FileDigest, len(v.Files))}
			for i, f := range v.Files {
				m.Bytes += f.Size
				m.FileDigests[i] = FileDigest{ID: f.ID, Size: f.Size, SHA256: fmt.Sprintf("%064x", f.ID)}
			}
			m.Seal()
			manifests[s] = m
		}
		// Measured on a 2-core container (Go 1.24): a merge that retained this
		// plan's file records peaked at 47.5 to 48.3 MB of heap beyond the
		// manifests; this merge at 12.3 to 15.3 MB of live heap at K=2 (two
		// trees and partitions, fragment 0's and the check's, and each
		// fragment's chunk in decoding) and at 23.3 to 28.6 MB at K=8. A merge
		// whose every fragment decoder rebuilt its tree peaked at 17.6 to 23.8
		// MB at K=2 and at 53.3 to 59.0 MB at K=8. The cap is 24 MiB for two
		// fragments and 3.5 MiB more for each fragment beyond: a chunk's JSON
		// text and records in decoding, at the default 8192 records a chunk,
		// where a tree and partition of these 30k directories would add 5 MB
		// more.
		cap := uint64(24<<20 + (k-2)*7<<19)
		var (
			res *MergeResult
			err error
		)
		peak := liveHeapPeak(t, func() {
			res, err = Merge(fragmentSource(context.Background(), frags), manifests)
		})
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("K=%d Merge: %v", k, err)
		}
		if res.Digest == "" {
			t.Fatalf("K=%d: the merge of hashed manifests produced no digest", k)
		}
		t.Logf("300k-file merge of %d fragments: peak live heap %.1f MB beyond the manifests (cap %.1f MB)", k, float64(peak)/(1<<20), float64(cap)/(1<<20))
		if peak > cap {
			t.Errorf("the merge of %d fragments peaked at %.1f MB of live heap beyond its manifests, cap is %.1f MB — something is retaining the plan's file records or a tree per fragment",
				k, float64(peak)/(1<<20), float64(cap)/(1<<20))
		}
	}
}

// countingDiscard swallows writes without retaining them.
type countingDiscard struct{}

func (countingDiscard) Write(p []byte) (int, error) { return len(p), nil }
